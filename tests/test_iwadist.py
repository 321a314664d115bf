import random
from fractions import Fraction

import pytest

from padiclog.iwadist import (
    CharPoint, IwaSeries, NoUnitWitness, NotDivisible, delta, divide_exact,
    equal_up_to_unit_mod, eval_at, growth_check, halflog, is_unit, log_tw,
    omega, omega_tw, phi_cyc, phi_tw, poly_reduce, twist, twisted_product, ucyc,
)
from padiclog.padic import PrimeCtx

CTX3 = PrimeCtx(3, 12)
CTX5 = PrimeCtx(5, 10)


def rand_poly(ctx, cap, rng, deg, unit_const=False):
    coeffs = [rng.randrange(ctx.modulus) for _ in range(deg + 1)]
    if unit_const and coeffs[0] % ctx.p == 0:
        coeffs[0] += 1
    return IwaSeries(ctx, coeffs, None, None, cap)


def test_omega_phi_small():
    w1 = omega(CTX3, 1, 10)
    assert w1.a[:5] == [0, 3, 3, 1, 0]
    f1 = phi_cyc(CTX3, 1, 10)
    assert f1.a[:4] == [3, 3, 1, 0]


def test_omega_product_identity():
    for ctx, nmax in ((PrimeCtx(3, 20), 3), (PrimeCtx(5, 20), 2)):
        cap = ctx.p ** nmax + 1
        for n in range(1, nmax + 1):
            lhs = omega(ctx, n, cap)
            rhs = IwaSeries.gen(ctx, cap)
            for k in range(1, n + 1):
                rhs = rhs * phi_cyc(ctx, k, cap)
            assert lhs == rhs


def test_twist_of_x():
    f = twist(IwaSeries.gen(CTX3, 8), 1)
    u = ucyc(CTX3)
    assert f.a[:3] == [u - 1, u, 0]


def test_twist_inverse_and_ring_hom():
    rng = random.Random(20)
    for _ in range(10):
        f = rand_poly(CTX3, 20, rng, 10)
        g = rand_poly(CTX3, 20, rng, 8)
        assert twist(twist(f, 1), -1) == f
        assert twist(f * g, 2) == twist(f, 2) * twist(g, 2)
        assert twist(f + g, -3) == twist(f, -3) + twist(g, -3)


def test_twist_eval_compatibility():
    rng = random.Random(21)
    for t, j, k in ((0, 0, 1), (1, 0, 1), (1, 1, -1), (2, 2, 3)):
        f = rand_poly(CTX3, 30, rng, 12)
        lhs = eval_at(twist(f, k), CharPoint(t, j))
        rhs = eval_at(f, CharPoint(t, j + k))
        assert lhs == rhs


def test_delta_family():
    d1 = delta(CTX3, 1, 8)
    assert d1.a[:3] == [0, 1, 0]
    d2 = delta(CTX3, 2, 8)
    x = IwaSeries.gen(CTX3, 8)
    assert d2 == x * twist(x, -1)


def test_omega_tw_factorization():
    for n in (1, 2, 3):
        for m in (1, 2):
            cap = 3 ** n * m + 5
            lhs = omega_tw(CTX3, n, m, cap)
            rhs = delta(CTX3, m, cap)
            for k in range(1, n + 1):
                rhs = rhs * phi_tw(CTX3, k, m, cap)
            assert lhs == rhs


def test_halflog_product_identity():
    # halflog(+,m,n) * halflog(-,m,n) * delta_m = prod_i Tw^-i(omega_n) / p^(mn)
    for ctx in (PrimeCtx(3, 14), PrimeCtx(5, 12)):
        for m in (1, 2):
            for n in (1, 2, 3):
                cap = m * ctx.p ** n + 2
                lhs = (halflog(ctx, "+", m, n, cap) * halflog(ctx, "-", m, n, cap)
                       * delta(ctx, m, cap))
                rhs = omega_tw(ctx, n, m, cap)
                assert lhs.denom_exp == m * n
                # rhs / p^(mn), with the denominator carried explicitly
                expect = IwaSeries(ctx, rhs.a, None, rhs.prec, rhs.deg_cap,
                                   denom_exp=m * n)
                assert lhs == expect
    # m = 1 flavor from the omega identity: log+ * log- * X = omega_N / p^N
    n = 3
    cap = 3 ** n + 2
    lhs = (halflog(CTX3, "+", 1, n, cap) * halflog(CTX3, "-", 1, n, cap)
           * IwaSeries.gen(CTX3, cap))
    w = omega(CTX3, n, cap)
    assert lhs == IwaSeries(CTX3, w.a, None, w.prec, w.deg_cap, denom_exp=n)


def test_halflog_vanishing():
    h = halflog(CTX3, "+", 1, 2, 12)
    assert eval_at(h, CharPoint(2, 0)).is_zero()
    assert not eval_at(h, CharPoint(1, 0)).is_zero()


def test_eval_at_basics():
    x = IwaSeries.gen(CTX3, 10)
    assert eval_at(x, CharPoint(0, 0)).is_zero()
    for n in (1, 2):
        w = omega(CTX3, n, 3 ** n + 2)
        assert eval_at(w, CharPoint(n, 0)).is_zero()
        assert not eval_at(w, CharPoint(n + 1, 0)).is_zero()


def cyclotomic_in_z(ctx, t):
    """Phi_{p^t}(z) = sum_{i<p} z^(i p^(t-1)), t >= 1, as a polynomial in z."""
    step = ctx.p ** (t - 1)
    a = [0] * ((ctx.p - 1) * step + 1)
    a[::step] = [1] * ctx.p
    return IwaSeries(ctx, a)


def test_eval_at_ring_hom():
    rng = random.Random(22)
    for t in (0, 1, 2):
        f = rand_poly(CTX3, 16, rng, 7)
        g = rand_poly(CTX3, 16, rng, 7)
        pt = CharPoint(t, rng.randrange(3))
        x, y = eval_at(f, pt), eval_at(g, pt)
        prod = x * y
        if t:
            # multiply in O[z]/Phi_{p^t}(z): full product, then reduce
            prod = poly_reduce(x.widen(2 * x.deg_cap) * y.widen(2 * y.deg_cap),
                               cyclotomic_in_z(CTX3, t))
        assert prod.deg_cap == x.deg_cap
        assert eval_at(f * g, pt) == prod


def test_growth_proxy():
    for m in (1, 2):
        for n in (2, 3):
            h = halflog(CTX3, "+", m, n, m * 3 ** n + 2)
            assert growth_check(h, Fraction(m, 2), 0)
            assert h.growth == Fraction(m, 2)
    lt = log_tw(CTX3, 1, 3, 29)
    assert growth_check(lt, 1, 0)
    assert not growth_check(lt.rescale(3).with_growth(0), 0, 0)
    bounded = IwaSeries(CTX3, [4, 7, 1], None, None, 8)
    assert growth_check(bounded, 0, 0)


def test_divide_exact_omega_by_x():
    w1 = omega(CTX3, 1, 10)
    x = IwaSeries.gen(CTX3, 10)
    q = divide_exact(w1, x)
    assert q == phi_cyc(CTX3, 1, 9)


def test_divide_exact_forward_random():
    rng = random.Random(23)
    for _ in range(20):
        g = rand_poly(CTX5, 40, rng, 6, unit_const=True)
        h = rand_poly(CTX5, 40, rng, 8)
        q = divide_exact(g * h, g)
        assert q == h
    # top-down mode on a divisor with non-unit constant term
    xpoly = IwaSeries(CTX5, [5, 1], None, None, 40)  # X + 5
    h = rand_poly(CTX5, 40, rng, 8)
    assert divide_exact(xpoly * h, xpoly) == h


def test_divide_exact_log_by_delta():
    # log_tw(m, n) / delta_m = halflog+ * halflog-
    for m in (1, 2):
        n = 2
        cap = m * 3 ** n + 4
        lt = log_tw(CTX3, m, n, cap)
        dm = delta(CTX3, m, cap)
        q = divide_exact(lt, dm)
        expect = halflog(CTX3, "+", m, n, cap) * halflog(CTX3, "-", m, n, cap)
        assert q == expect


def test_divide_exact_failure():
    x = IwaSeries.gen(CTX3, 10)
    one = IwaSeries.const(CTX3, 1, 10)
    with pytest.raises(NotDivisible):
        divide_exact(one, x)


def test_is_unit():
    assert is_unit(IwaSeries(CTX3, [1, 5, 9], None, None, 6))
    assert not is_unit(IwaSeries.gen(CTX3, 6))
    assert not is_unit(IwaSeries(CTX3, [3, 1], None, None, 6))
    # p * unit with denominator p is a unit after normalization
    u = IwaSeries(CTX3, [3, 3], None, None, 6, denom_exp=1)
    assert is_unit(u)


def test_equal_up_to_unit_scalar():
    ctx = PrimeCtx(5, 8)
    rng = random.Random(24)
    g = rand_poly(ctx, 30, rng, 10, unit_const=True)
    u = equal_up_to_unit_mod(3 * g, g, 1)
    assert u.a[0] % 5 ** 6 == 3
    assert is_unit(u)


def test_equal_up_to_unit_series():
    ctx = PrimeCtx(5, 8)
    rng = random.Random(25)
    for _ in range(5):
        g = rand_poly(ctx, 60, rng, 9, unit_const=True)
        uval = IwaSeries(ctx, [1, 1, 1], None, None, 60)  # 1 + X + X^2
        f = uval * g
        u = equal_up_to_unit_mod(f, g, 2)
        assert is_unit(u)
        ideal = omega_tw(ctx, 2, 1, 60)
        assert poly_reduce(f - u * g, ideal).is_zero()


def test_equal_up_to_unit_rejects():
    ctx = PrimeCtx(5, 8)
    x = IwaSeries.gen(ctx, 30)
    one = IwaSeries.const(ctx, 1, 30)
    with pytest.raises(NoUnitWitness):
        equal_up_to_unit_mod(x, one * 5, 1)


def test_twisted_product_empty():
    f = twisted_product(CTX3, IwaSeries.gen(CTX3, 6), 0)
    assert f == IwaSeries.const(CTX3, 1, 6)


def test_w_part_vanishing_at_precision_is_dropped():
    ctx = PrimeCtx(3, 5, ("unramified", 2))
    s = IwaSeries(ctx, [1, 2, 0], [3, 0, 0], 1)
    assert s.b is None and not s.has_ext()
    assert "coeffs_w" not in s.to_json()
    # a divisor whose w-part vanishes at its precision is base-valued
    f = IwaSeries(ctx, [1, 0, 1], None, 1)
    assert poly_reduce(f, IwaSeries(ctx, [1, 1], [3, 0], 1)).a == [2]
    kept = IwaSeries(ctx, [1, 2, 0], [3, 0, 0], 2)
    assert kept.has_ext() and kept.to_json()["coeffs_w"] == ["3", "0", "0"]


def test_min_val_matches_valuations():
    # min_val reads one gcd per part; valuations() builds a Fraction per
    # coefficient.  Coefficients carry extra p-powers so that minima vary.
    from padiclog.iwadist import INF
    from padiclog.padic import RAMIFIED, UNRAMIFIED
    rng = random.Random(77)
    ctxs = [PrimeCtx(3, 8), PrimeCtx(5, 6), PrimeCtx(3, 8, (UNRAMIFIED, 2)),
            PrimeCtx(5, 6, (UNRAMIFIED, 2)), PrimeCtx(3, 8, (RAMIFIED, 2)),
            PrimeCtx(7, 5, (RAMIFIED, 3))]
    seen = 0
    for ctx in ctxs:
        p = ctx.p
        for _ in range(40):
            cap = rng.randint(0, 12)
            prec = rng.randint(1, ctx.prec + 3)     # above the context cap too

            def part():
                return [rng.randrange(p ** (prec + 1)) * p ** rng.randint(0, prec)
                        if rng.random() < 0.6 else 0 for _ in range(cap)]
            b = part() if ctx.ext and rng.random() < 0.7 else None
            f = IwaSeries(ctx, part(), b, prec, cap)
            assert f.min_val() == min(f.valuations(), default=INF)
            seen += f.b is not None and f.min_val() != INF
        z = IwaSeries.zero(ctx, 5)
        assert z.min_val() == INF == min(z.valuations(), default=INF)
    assert seen > 20
