import random

import pytest

from padiclog import _poly
from padiclog.cycser import frobenius, mellin_inverse
from padiclog.iwadist import InsufficientDegree, IwaSeries
from padiclog.logmat import NotInImage
from padiclog.padic import PrimeCtx


CTX3 = PrimeCtx(3, 12)
CTX5 = PrimeCtx(5, 10)


def one_plus_pi_pow(ctx, e, cap):
    """(1+pi)^e truncated at cap, at the context precision."""
    return IwaSeries(ctx, _poly.onepx_pow(e, cap, ctx.p, ctx.prec), None,
                     ctx.prec, cap)


def rand_series(ctx, cap, rng, deg=None):
    if deg is None:
        deg = cap - 1
    m = ctx.modulus
    return IwaSeries(ctx, [rng.randrange(m) for _ in range(deg + 1)], None, None, cap)


def horner(f, g):
    """f(g) by Horner on series arithmetic, in f's window."""
    out = IwaSeries.zero(f.ctx, f.deg_cap)
    for c in reversed(f.a):
        out = out * g + IwaSeries.const(f.ctx, c, f.deg_cap)
    return out


def test_frobenius_of_pi():
    # phi(pi) = (1+pi)^p - 1
    f = frobenius(IwaSeries.gen(CTX3, 30))
    expect = one_plus_pi_pow(CTX3, 3, 30) - IwaSeries.const(CTX3, 1, 30)
    assert f == expect


def test_frobenius_of_one_plus_pi():
    f = frobenius(one_plus_pi_pow(CTX3, 1, 30))
    assert f == one_plus_pi_pow(CTX3, 3, 30)


def test_frobenius_matches_substitution_oracle():
    rng = random.Random(7)
    for ctx in (CTX3, CTX5, PrimeCtx(7, 20)):
        p = ctx.p
        # windows at and just past p, where (1+pi)^p - 1 is cut
        for cap in (p, p + 1, 2 * p + 3, 40):
            phi_pi = one_plus_pi_pow(ctx, p, cap) - IwaSeries.const(ctx, 1, cap)
            for _ in range(3):
                f = rand_series(ctx, cap, rng)
                assert frobenius(f) == horner(f, phi_pi)


def test_frobenius_is_ring_map():
    rng = random.Random(8)
    cap = 36
    for _ in range(10):
        f = rand_series(CTX3, cap, rng, deg=5)
        g = rand_series(CTX3, cap, rng, deg=5)
        assert frobenius(f * g) == frobenius(f) * frobenius(g)
        assert frobenius(f + g) == frobenius(f) + frobenius(g)


def test_frobenius_q_compatibility():
    # phi(q)*phi(pi) = phi(q*pi) = phi(phi(pi))
    cap = 81
    q = IwaSeries(CTX3, [3, 3, 1], None, None, cap)     # ((1+pi)^3 - 1)/pi
    pi = IwaSeries.gen(CTX3, cap)
    lhs = frobenius(q) * frobenius(pi)
    assert lhs == frobenius(q * pi)
    assert lhs == frobenius(frobenius(pi))


def test_frobenius_needs_degree():
    with pytest.raises(InsufficientDegree):
        frobenius(IwaSeries.gen(CTX3, 2))


def test_onepx_basis_unipotent_roundtrip():
    from padiclog import _poly
    rng = random.Random(13)
    m = 5 ** 8
    xs = [rng.randrange(m) for _ in range(40)]
    assert _poly.from_onepx_basis(_poly.to_onepx_basis(xs, m), m) == xs
    assert _poly.to_onepx_basis(_poly.from_onepx_basis(xs, m), m) == xs


def test_mellin_inverse_examples():
    assert mellin_inverse(one_plus_pi_pow(CTX5, 1, 25), 1) == {1: 1}
    # (1+pi)^u - (1+pi) is the image of X = gamma - 1 with chi(gamma) = u
    u = 1 + 5
    h = one_plus_pi_pow(CTX5, u, 25) - one_plus_pi_pow(CTX5, 1, 25)
    assert mellin_inverse(h, 1) == {u: 1, 1: CTX5.modulus - 1}


def test_mellin_roundtrip_random():
    # sum lam_a (1+pi)^a, with lam_a = 0 for p | a, reads back as lam
    rng = random.Random(15)
    ctx = PrimeCtx(5, 10)
    m = ctx.modulus
    for _ in range(100):
        lam = {a: rng.randrange(m) for a in range(1, 125) if a % 5 != 0}
        bs = [lam.get(a, 0) for a in range(125)]
        h = IwaSeries(ctx, _poly.from_onepx_basis(bs, m, 125), None, None, 125)
        assert mellin_inverse(h, 2) == {a: c for a, c in lam.items() if c}


def test_mellin_inverse_rejects_psi_nonzero():
    with pytest.raises(NotInImage):
        mellin_inverse(IwaSeries.const(CTX5, 1, 25), 1)
    with pytest.raises(InsufficientDegree):
        mellin_inverse(IwaSeries.gen(CTX5, 10), 1)


def test_maps_reject_w_part_and_denominator():
    # the pi-series maps act on base-valued series with denom_exp 0; a w-part
    # or a denominator must raise, not be dropped
    ctx = PrimeCtx(5, 6, ("unramified", 2))
    bad = [IwaSeries(ctx, [1, 2, 3], [0, 1], None, 25),
           IwaSeries(ctx, [1, 2, 3], None, None, 25, denom_exp=1)]
    for f in bad:
        for fn in (frobenius, lambda h: mellin_inverse(h, 1)):
            with pytest.raises(ValueError):
                fn(f)
