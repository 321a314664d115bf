import random

import pytest

from padiclog.iwadist import NotDivisible
from padiclog.padic import PadicElt, PrimeCtx
from padiclog.regdiv import (MSeries, SpecFamily, chevalley_check, divides_trunc,
                             specialize)

CTX = PrimeCtx(5, 12)


def rand_mseries(ctx, nvars, deg, rng, cap=8, unit_const=False):
    coeffs = {}
    from padiclog.regdiv import _monomials
    for mo in _monomials(nvars, deg + 1):
        if rng.random() < 0.7:
            coeffs[mo] = rng.randrange(ctx.modulus)
    if unit_const:
        c = coeffs.get((0,) * nvars, 0)
        if c % ctx.p == 0:
            coeffs[(0,) * nvars] = c + 1
    return MSeries(ctx, nvars, coeffs, cap)


def test_specialize_basics():
    x0 = MSeries.var(CTX, 2, 0)
    assert specialize(x0, 5).coeff((0,)) == 5
    f = x0 - MSeries.const(CTX, 2, 5)
    assert specialize(f, 5).is_zero()


def test_specialize_ring_map():
    rng = random.Random(40)
    for _ in range(20):
        f = rand_mseries(CTX, 2, 3, rng)
        g = rand_mseries(CTX, 2, 3, rng)
        a = 5 * rng.randrange(1, 100)
        assert specialize(f * g, a) == specialize(f, a) * specialize(g, a)
        assert specialize(f + g, a) == specialize(f, a) + specialize(g, a)


def ref_specialize(f, a):
    """x0 = a with a fresh power a ** e[0] for every monomial."""
    out = {}
    for e, c in f.coeffs.items():
        term = c * a ** e[0]
        s = out.get(e[1:])
        out[e[1:]] = term if s is None else s + term
    return MSeries(f.ctx, f.nvars - 1, out, f.deg_cap)


def test_specialize_matches_power_reference():
    def view(f):
        return sorted((e, c.a, c.b, c.prec) for e, c in f.coeffs.items())

    rng = random.Random(41)
    for ctx in (CTX, PrimeCtx(3, 7, ("unramified", 2)), PrimeCtx(5, 6, ("ramified", 2))):
        for _ in range(15):
            f = rand_mseries(ctx, 2, rng.randrange(0, 6), rng)
            b = 0
            if ctx.ext:
                f = f + f * PadicElt(ctx, 0, 1, rng.randrange(1, ctx.prec + 1))
                b = ctx.p * rng.randrange(ctx.modulus)
            a = PadicElt(ctx, ctx.p * rng.randrange(ctx.modulus), b,
                         rng.randrange(1, ctx.prec + 1))
            assert view(specialize(f, a)) == view(ref_specialize(f, a))


def test_divides_simple():
    # F = 1 + x0, G = 1 - x0^2  ->  H = 1 - x0
    one = MSeries.const(CTX, 1, 1)
    x0 = MSeries.var(CTX, 1, 0)
    f = one + x0
    g = one - x0 * x0
    w = divides_trunc(f, g)
    assert w.quotient == one - x0


def test_divides_forward_random():
    rng = random.Random(41)
    for _ in range(20):
        f = rand_mseries(CTX, 2, 2, rng, unit_const=True)
        h = rand_mseries(CTX, 2, 3, rng)
        g = f * h
        w = divides_trunc(f, g)
        # recovery inside the certified window
        diff = w.quotient - h
        assert all(sum(e) >= w.cert_degree or c.is_zero() or
                   c.val() >= w.cert_prec for e, c in diff.coeffs.items())


def test_divides_obstruction_at_top():
    # F = x0 - 5 is a genuine non-unit: a pure x1-power cannot be absorbed
    rng = random.Random(42)
    f = MSeries.var(CTX, 2, 0, 6) - MSeries.const(CTX, 2, 5, 6)
    h = rand_mseries(CTX, 2, 2, rng, cap=6)
    g = f * h
    bad = MSeries(CTX, 2, {(0, 5): 1}, 6)
    g2 = g + bad
    with pytest.raises(NotDivisible) as exc:
        divides_trunc(f, g2, window=6)
    assert "degree 5" in str(exc.value)
    # the default certified window stops below the planted obstruction
    w = divides_trunc(f, g2)
    assert w.cert_degree == 5


def test_chevalley_positive():
    rng = random.Random(43)
    f = rand_mseries(CTX, 2, 2, rng, unit_const=True)
    h = rand_mseries(CTX, 2, 2, rng)
    g = f * h
    fam = SpecFamily(CTX, [5 * i for i in range(1, 11)])
    rpt = chevalley_check(f, g, fam)
    assert rpt.content_ok and rpt.x0_ok and rpt.points_ok
    assert rpt.direct_ok


def test_chevalley_coprime_fails_pointwise():
    # non-unit F = x1 - x0 against the unit G = 1 + x0: (c) fails everywhere
    f = MSeries.var(CTX, 2, 1) - MSeries.var(CTX, 2, 0)
    g = MSeries.const(CTX, 2, 1) + MSeries.var(CTX, 2, 0)
    fam = SpecFamily(CTX, [5 * i for i in range(1, 11)])
    rpt = chevalley_check(f, g, fam)
    assert not rpt.points_ok
    assert not any(ok for _, ok, _ in rpt.point_results)


def test_chevalley_finite_counterexample():
    # G = F*H + (x0 - a1)(x0 - a2) with F = x0 - b, b deeply congruent to a
    # fresh a3: hypotheses pass at a1, a2 but fail at a3, and the direct
    # division fails -- finitely many specializations certify nothing.
    rng = random.Random(44)
    a1, a2, a3 = 5, 10, 15
    b = a3 + 5 ** 3
    f = MSeries.var(CTX, 2, 0, 7) - MSeries.const(CTX, 2, b, 7)
    h = rand_mseries(CTX, 2, 2, rng, cap=7)
    x0 = MSeries.var(CTX, 2, 0, 7)
    extra = (x0 - MSeries.const(CTX, 2, a1, 7)) * (x0 - MSeries.const(CTX, 2, a2, 7))
    g = f * h + extra
    rpt12 = chevalley_check(f, g, SpecFamily(CTX, [a1, a2]))
    assert rpt12.points_ok
    # ... but the direct division fails, showing two points certify nothing
    assert rpt12.direct_ok is False
    rpt3 = chevalley_check(f, g, SpecFamily(CTX, [a1, a2, a3]))
    assert not rpt3.points_ok
    assert rpt3.point_results[0][1] and rpt3.point_results[1][1]
    assert not rpt3.point_results[2][1]


def test_madic_shrinking_witness():
    # prod_{i<=n} (x0 - a_i) has degree-t coefficients of valuation >= n - t
    ctx = PrimeCtx(5, 16)
    x0 = MSeries.var(ctx, 1, 0, deg_cap=14)
    rng = random.Random(45)
    prod = MSeries.const(ctx, 1, 1, deg_cap=14)
    for n in range(1, 13):
        a = 5 * rng.randrange(1, ctx.modulus // 5)
        prod = prod * (x0 - MSeries.const(ctx, 1, a, 14))
        for e, c in prod.coeffs.items():
            t = sum(e)
            assert c.is_zero() or c.val() >= n - t


def test_soundness_direct_implies_points():
    rng = random.Random(46)
    for _ in range(5):
        f = rand_mseries(CTX, 2, 2, rng, unit_const=True)
        h = rand_mseries(CTX, 2, 2, rng)
        g = f * h
        fam = SpecFamily(CTX, [5, 10, 20, 35])
        try:
            divides_trunc(f, g)
        except NotDivisible:
            continue
        rpt = chevalley_check(f, g, fam)
        assert rpt.points_ok


def test_spec_family_validation():
    with pytest.raises(ValueError):
        SpecFamily(CTX, [1])
    with pytest.raises(ValueError):
        SpecFamily(CTX, [5, 5])


def test_mseries_json_roundtrip():
    rng = random.Random(47)
    f = rand_mseries(CTX, 3, 2, rng)
    blob = f.to_json()
    assert MSeries.from_json(blob) == f
