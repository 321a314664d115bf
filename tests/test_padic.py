import random

import pytest

from padiclog.padic import (
    INF, NoRoot, NonUnit, PadicElt, PrimeCtx, sqrt,
)


def test_val_basics():
    ctx = PrimeCtx(3, 20)
    assert ctx.from_int(12).val() == 1
    assert ctx.from_int(0).val() == INF
    assert ctx.from_int(1).val() == 0


def test_val_ramified_uniformizer():
    ctx = PrimeCtx(3, 10, ("ramified", 1))
    w = ctx.uniformizer()
    assert w.val() == 0.5
    assert (w * w).val() == 1


def test_inv_examples():
    ctx = PrimeCtx(5, 3)
    assert ctx.one().inv() == 1
    assert ctx.from_int(2).inv().a == 63
    with pytest.raises(NonUnit):
        ctx.from_int(5).inv()
    with pytest.raises(NonUnit):
        ctx.from_int(0).inv()


def test_sqrt_examples():
    ctx = PrimeCtx(5, 3)
    r = sqrt(ctx.from_int(-1))
    assert r.a == 57
    assert r * r == -1
    assert sqrt(ctx.one()) == 1
    with pytest.raises(NoRoot):
        sqrt(ctx.from_int(5))


def test_sqrt_ramified():
    ctx = PrimeCtx(3, 8, ("ramified", 1))
    r = sqrt(ctx.from_int(3))
    assert r * r == 3
    assert r.val() == 0.5
    ctx2 = PrimeCtx(3, 8, ("ramified", -1))
    r2 = sqrt(ctx2.from_int(-3 ** 3))
    assert r2 * r2 == -27
    with pytest.raises(NoRoot):
        sqrt(ctx.from_int(-3))


def test_sqrt_unramified():
    # -1 is a non-residue mod 7; adjoin w with w^2 = -1
    ctx = PrimeCtx(7, 6, ("unramified", -1))
    r = sqrt(ctx.from_int(-4))
    assert r * r == -4
    with pytest.raises(NoRoot):
        sqrt(ctx.from_int(7))


def test_sqrt_canonical_choice():
    ctx = PrimeCtx(5, 4)
    for c in (1, 4, 6, 11, 14):
        r = sqrt(ctx.from_int(c))
        u = r.a
        while u % 5 == 0:
            u //= 5
        assert 1 <= u % 5 <= 2


def test_ring_axioms_random():
    rng = random.Random(0)
    for ctx in (PrimeCtx(5, 6), PrimeCtx(3, 5, ("ramified", 1)),
                PrimeCtx(7, 4, ("unramified", -1))):
        m = ctx.modulus
        for _ in range(200):
            xs = [PadicElt(ctx, rng.randrange(m),
                           rng.randrange(m) if ctx.ext else 0) for _ in range(3)]
            x, y, z = xs
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            assert x + y == y + x
            assert x * y == y * x
            assert x + (-x) == 0


def test_inv_random():
    ctx = PrimeCtx(5, 8)
    rng = random.Random(1)
    for _ in range(1000):
        a = rng.randrange(1, ctx.modulus)
        if a % 5 == 0:
            continue
        x = ctx.from_int(a)
        assert x.inv().inv() == x
        assert x * x.inv() == 1


def test_val_multiplicative():
    rng = random.Random(2)
    ctx = PrimeCtx(3, 12, ("ramified", 2))
    for _ in range(300):
        x = PadicElt(ctx, rng.randrange(ctx.modulus), rng.randrange(ctx.modulus))
        y = PadicElt(ctx, rng.randrange(ctx.modulus), rng.randrange(ctx.modulus))
        vx, vy = x.val(), y.val()
        if vx is INF or vy is INF:
            continue
        # valid whenever the product valuation is visible at the precision horizon
        if vx + vy < ctx.prec - 1:
            assert (x * y).val() == vx + vy


def test_precision_propagation():
    ctx = PrimeCtx(5, 10)
    x = PadicElt(ctx, 7, 0, 6)
    y = PadicElt(ctx, 3, 0, 4)
    assert (x + y).prec == 4
    assert (x * y).prec == 4
    assert PadicElt(ctx, 2, 0, 7).inv().prec == 7
    z = PadicElt(ctx, 50, 0, 6)
    assert z.divide_exact_p(2).prec == 4
    assert z.divide_exact_p(2) == 2


def test_precision_interval_oracle():
    # interval-style check: results agree for any lift of the inputs
    ctx = PrimeCtx(5, 12)
    rng = random.Random(3)
    for _ in range(200):
        ka, kb = rng.randrange(2, 8), rng.randrange(2, 8)
        a = rng.randrange(5 ** ka)
        b = rng.randrange(5 ** kb)
        x0 = PadicElt(ctx, a, 0, ka)
        y0 = PadicElt(ctx, b, 0, kb)
        x1 = PadicElt(ctx, a + 5 ** ka * rng.randrange(5), 0, ka)
        y1 = PadicElt(ctx, b + 5 ** kb * rng.randrange(5), 0, kb)
        for op in (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t):
            r0, r1 = op(x0, y0), op(x1, y1)
            assert r0.prec == r1.prec == min(ka, kb)
            assert r0 == r1
