"""The int-vector division, valuation and evaluation core against PadicElt loops.

The reference functions below divide one PadicElt at a time, with each
coefficient carrying its own precision.  `iwadist` divides whole int vectors
through `_poly`; the two must agree on coefficients, precision, denominator
exponent and growth tag, including the precision edge cases (inputs at
different precisions, quotients that vanish, empty windows).  `eval_at` is
checked the same way against the loop that built its value one PadicElt per
power-basis coordinate.
"""

import random
from fractions import Fraction

import pytest

from padiclog import _poly
from padiclog.iwadist import (INF, CharPoint, IwaSeries, NotDivisible,
                              divide_exact, eval_at, growth_check, poly_reduce,
                              solve_series_div, ucyc)
from padiclog.padic import (RAMIFIED, UNRAMIFIED, NonUnit, PadicElt, PrimeCtx,
                            is_qr)

# -- reference: the per-coefficient PadicElt loops -----------------------------


def ref_from_coeffs(ctx, coeffs, deg_cap, denom_exp=0, growth=Fraction(0)):
    pmin = ctx.prec
    for c in coeffs:
        pmin = min(pmin, c.prec)
    return IwaSeries(ctx, [c.a for c in coeffs], [c.b for c in coeffs], pmin,
                     deg_cap, denom_exp, growth)


def ref_coeffs(f):
    return [f.coeff(i) for i in range(f.deg_cap)]


def ref_poly_reduce(f, g):
    dg = g.degree()
    if dg < 0:
        raise ZeroDivisionError("reduction modulo zero")
    linv = g.coeff(dg).inv()
    fs = ref_coeffs(f)
    gs = ref_coeffs(g)
    for i in range(len(fs) - 1, dg - 1, -1):
        c = fs[i]
        if c.is_zero():
            continue
        q = c * linv
        for k in range(dg + 1):
            fs[i - dg + k] = fs[i - dg + k] - q * gs[k]
    return ref_from_coeffs(f.ctx, fs[:dg], dg, f.denom_exp, f.growth)


def ref_poly_divmod(f, g):
    dg = g.degree()
    linv = g.coeff(dg).inv()
    fs = ref_coeffs(f)
    gs = ref_coeffs(g)
    q = [PadicElt(f.ctx, 0, 0, f.prec)] * max(len(fs) - dg, 0)
    for i in range(len(fs) - 1, dg - 1, -1):
        c = fs[i]
        if c.is_zero():
            continue
        qc = c * linv
        q[i - dg] = qc
        for k in range(dg + 1):
            fs[i - dg + k] = fs[i - dg + k] - qc * gs[k]
    quot = ref_from_coeffs(f.ctx, q, f.deg_cap)
    rem = ref_from_coeffs(f.ctx, fs[:dg] if dg else [], max(dg, 1))
    return quot, rem


def ref_divide_exact(f, g, mode=None):
    if g.is_zero():
        raise NotDivisible("division by zero at precision")
    dnum = f.denom_exp - g.denom_exp
    x = f.rescale(-dnum) if dnum < 0 else f
    denom_out = max(dnum, 0)
    growth = max(Fraction(0), f.growth - g.growth)
    dg = g.degree()
    lead_unit = g.coeff(dg).is_unit()
    cap = min(x.deg_cap, g.deg_cap)
    if mode is None:
        mode = "poly" if (lead_unit and x.degree() + 1 < cap) else "series"
    if mode == "poly" and lead_unit:
        q, r = ref_poly_divmod(x, g)
        if not r.is_zero():
            raise NotDivisible("nonzero remainder at precision")
        q.denom_exp = denom_out
        q.growth = growth
        return q
    ordg = None
    for i in range(g.deg_cap):
        if g.coeff(i).is_unit():
            ordg = i
            break
        if not g.coeff(i).is_zero():
            raise NotDivisible("low-order pivot is not a unit at precision")
    if ordg is None:
        raise NotDivisible("no unit pivot available")
    for i in range(ordg):
        if not x.coeff(i).is_zero():
            raise NotDivisible("X-order of numerator is smaller than divisor")
    piv = g.coeff(ordg).inv()
    n = cap - ordg
    fs = [x.coeff(i + ordg) for i in range(min(n, x.deg_cap - ordg))]
    gs = [g.coeff(i + ordg) for i in range(min(n, g.deg_cap - ordg))]
    out = []
    for i in range(n):
        acc = fs[i] if i < len(fs) else PadicElt(x.ctx, 0, 0, x.prec)
        for j in range(1, min(i, len(gs) - 1) + 1):
            acc = acc - gs[j] * out[i - j]
        out.append(acc * piv)
    return ref_from_coeffs(x.ctx, out, n, denom_out, growth)


def ref_fast_path(y, g):
    """The polynomial fast path of solve_series_div, or None when it declines."""
    ctx = y.ctx
    prec = min(y.prec, g.prec)
    dg = g.degree()
    cap = y.deg_cap
    dshift = y.denom_exp - g.denom_exp
    if not (g.coeff(dg).is_unit() and y.degree() + 1 < cap):
        return None
    try:
        quot, rem = ref_poly_divmod(IwaSeries(ctx, y.a, y.b, prec, cap),
                                    IwaSeries(ctx, g.a, g.b, prec, g.deg_cap))
    except NonUnit:
        return None
    if not rem.is_zero():
        return None
    quot.denom_exp = max(dshift, 0)
    quot.growth = max(Fraction(0), y.growth - g.growth)
    return quot.times_p(-dshift) if dshift < 0 else quot


def ref_min_val(f):
    best = INF
    for i in range(f.deg_cap):
        best = min(best, f.coeff(i).val())
    return best


def ref_growth_check(f, r, c=0):
    bound_exp, reach = 0, 1
    for i in range(f.deg_cap):
        if i + 1 > reach:
            bound_exp += 1
            reach *= f.ctx.p
        v = f.coeff(i).val()
        if v is not INF and v - f.denom_exp < -Fraction(r) * bound_exp - c:
            return False
    return True


def ref_reduce_pow(p, t, e):
    """z^e in the power basis of O[z]/Phi_{p^t}(z), as {index: sign}."""
    if t == 0:
        return {0: 1}
    e %= p ** t
    d = (p - 1) * p ** (t - 1)
    if e < d:
        return {e: 1}
    # z^(d + r) = -sum_{i<p-1} z^(i p^(t-1) + r)
    r = e - d
    return {i * p ** (t - 1) + r: -1 for i in range(p - 1)}


def ref_eval_at(f, pt):
    """(coords, is_zero, denom_exp) of f at X = zeta u^j - 1, one PadicElt
    per power-basis coordinate."""
    ctx, p = f.ctx, f.ctx.p
    d = 1 if pt.t == 0 else (p - 1) * p ** (pt.t - 1)
    m = f.modulus()
    uj = pow(ucyc(ctx), pt.j, m)
    out_a = [0] * d
    out_b = [0] * d if f.b else None
    for vec, out in ((f.a, out_a), (f.b, out_b)):
        if vec is None:
            continue
        ujk = 1
        for k, bk in enumerate(_poly.to_onepx_basis(vec, m)):
            if bk:
                c = (bk * ujk) % m
                for idx, s in ref_reduce_pow(p, pt.t, k).items():
                    out[idx] = (out[idx] + s * c) % m
            ujk = (ujk * uj) % m
    vec = [PadicElt(ctx, out_a[i], out_b[i] if out_b else 0, f.prec)
           for i in range(d)]
    return [(x.a, x.b) for x in vec], all(x.is_zero() for x in vec), f.denom_exp


def eval_view(f, pt):
    v = eval_at(f, pt)
    coords = [(c, v.b[i] if v.b else 0) for i, c in enumerate(v.a)]
    return coords, v.is_zero(), v.denom_exp


# -- random inputs -------------------------------------------------------------


def state(f):
    return (f.a, f.b, f.prec, f.deg_cap, f.denom_exp, f.growth)


def outcome(fn, *args):
    try:
        return "ok", state(fn(*args))
    except NotDivisible:
        return "NotDivisible", None


def contexts(p, prec):
    d = next(d for d in range(2, p) if not is_qr(d, p))
    return [PrimeCtx(p, prec), PrimeCtx(p, prec, (UNRAMIFIED, d)),
            PrimeCtx(p, prec, (RAMIFIED, 1))]


def rand_coeff(rng, p, prec):
    """Zero, a unit, or a multiple of a random power of p (up to p^prec)."""
    kind = rng.random()
    if kind < 0.3:
        return 0
    return rng.randrange(1, p ** prec) * p ** rng.randrange(0, prec + 1)


def rand_divisor(rng, ctx, deg_cap, unit_lead=True):
    p, prec = ctx.p, ctx.prec
    dg = rng.randrange(0, min(5, deg_cap))
    a = [rand_coeff(rng, p, prec) for _ in range(dg)]
    lead = rng.randrange(1, p) + p * rng.randrange(0, p ** prec)
    if not unit_lead:
        # a unit low-order pivot, a lead divisible by p: forces series mode
        a[0:1] = [rng.randrange(1, p)]
        lead = p * rng.randrange(1, p)
        dg = max(dg, 1)
        a = a[:dg] + [0] * (dg - len(a))
    gprec = rng.randrange(1, prec + 1)
    return IwaSeries(ctx, a + [lead], None, gprec, deg_cap,
                     rng.randrange(0, 3), Fraction(rng.randrange(0, 3), 2))


def rand_numerator(rng, ctx, deg_cap, g=None):
    """Random series, or g times a random series (an exact multiple)."""
    p, prec = ctx.p, ctx.prec
    ext = ctx.ext is not None and rng.random() < 0.7
    top = rng.randrange(0, deg_cap + 1)
    a = [rand_coeff(rng, p, prec) for _ in range(top)]
    b = [rand_coeff(rng, p, prec) for _ in range(top)] if ext else None
    fprec = rng.randrange(1, prec + 1)
    f = IwaSeries(ctx, a, b, fprec, deg_cap, rng.randrange(0, 4),
                  Fraction(rng.randrange(0, 4), 2))
    if g is not None and rng.random() < 0.6:
        hcap = max(deg_cap - g.degree(), 1)
        h = IwaSeries(ctx, a[:hcap], b[:hcap] if b else None, fprec, deg_cap,
                      f.denom_exp, f.growth)
        f = IwaSeries(ctx, (g * h).a, (g * h).b, fprec, deg_cap,
                      f.denom_exp + g.denom_exp, f.growth)
    if rng.random() < 0.1:
        f = IwaSeries.zero(ctx, deg_cap, fprec)
    return f


CASES = [(p, seed) for p in (3, 5, 7) for seed in range(4)]


@pytest.mark.parametrize("p,seed", CASES)
def test_poly_reduce_matches_reference(p, seed):
    rng = random.Random(1000 * p + seed)
    for ctx in contexts(p, rng.randrange(2, 6)):
        for _ in range(60):
            cap = rng.randrange(1, 14)
            g = rand_divisor(rng, ctx, rng.randrange(5, 10))
            f = rand_numerator(rng, ctx, cap, g)
            assert state(poly_reduce(f, g)) == state(ref_poly_reduce(f, g))


@pytest.mark.parametrize("p,seed", CASES)
def test_divide_exact_matches_reference(p, seed):
    rng = random.Random(2000 * p + seed)
    counts = {"ok": 0, "NotDivisible": 0}
    for ctx in contexts(p, rng.randrange(2, 6)):
        for _ in range(60):
            cap = rng.randrange(2, 14)
            g = rand_divisor(rng, ctx, rng.randrange(cap, cap + 4),
                             unit_lead=rng.random() < 0.6)
            f = rand_numerator(rng, ctx, cap, g)
            for mode in (None, "poly", "series"):
                got = outcome(divide_exact, f, g, mode)
                assert got == outcome(ref_divide_exact, f, g, mode)
                counts[got[0]] += 1
    assert counts["ok"] > 50 and counts["NotDivisible"] > 10


@pytest.mark.parametrize("p,seed", CASES)
def test_solve_series_div_fast_path_matches_reference(p, seed):
    rng = random.Random(3000 * p + seed)
    hits = 0
    for ctx in contexts(p, rng.randrange(2, 6)):
        for _ in range(60):
            cap = rng.randrange(2, 14)
            g = rand_divisor(rng, ctx, rng.randrange(5, 10))
            y = rand_numerator(rng, ctx, cap, g)
            want = ref_fast_path(y, g)
            if want is None:
                continue
            hits += 1
            assert state(solve_series_div(y, g)) == state(want)
    assert hits > 20


@pytest.mark.parametrize("p,seed", CASES)
def test_valuations_match_reference(p, seed):
    rng = random.Random(4000 * p + seed)
    for ctx in contexts(p, rng.randrange(2, 6)):
        for _ in range(40):
            f = rand_numerator(rng, ctx, rng.randrange(0, 10))
            assert f.min_val() == ref_min_val(f)
            for r in (0, Fraction(1, 2), 1):
                assert growth_check(f, r) == ref_growth_check(f, r)


def rand_eval_series(rng, ctx, ext):
    """A series at a precision below, at or above the context's, or 0, with
    a w-part when ext is set."""
    p = ctx.p
    prec = rng.choice((0, rng.randrange(1, ctx.prec + 1), ctx.prec, ctx.prec + 2))
    cap = rng.randrange(1, p * p + 3)
    a = [rand_coeff(rng, p, prec + 1) for _ in range(rng.randrange(0, cap + 1))]
    b = [rand_coeff(rng, p, prec + 1) for _ in range(cap)] if ext else None
    return IwaSeries(ctx, a, b, prec, cap, rng.randrange(0, 3))


def eval_outcome(fn, f, pt):
    try:
        return "ok", fn(f, pt)
    except ValueError:
        return "ValueError", None


@pytest.mark.parametrize("p,seed", CASES)
def test_eval_at_matches_reference(p, seed):
    rng = random.Random(5000 * p + seed)
    kinds = set()
    for ctx in contexts(p, rng.randrange(2, 6)):
        for i in range(10):
            f = rand_eval_series(rng, ctx, ext=i % 3 != 0)
            for t in range(4):
                pt = CharPoint(t, rng.randrange(-3, 3))
                got = eval_outcome(eval_view, f, pt)
                assert got == eval_outcome(ref_eval_at, f, pt)
                if got[0] == "ValueError":
                    # a w-part over a context without an extension
                    kinds.add("base w-part")
                    continue
                kinds.add("zero" if got[1][1] else "nonzero")
                kinds.update(k for k, hit in (
                    ("w-part", f.b), ("denominator", f.denom_exp),
                    ("prec above", f.prec > ctx.prec), ("prec 0", f.prec == 0),
                    ("t=3", t == 3), ("negative j", pt.j < 0)) if hit)
    assert kinds == {"base w-part", "zero", "nonzero", "w-part", "denominator",
                     "prec above", "prec 0", "t=3", "negative j"}


def test_edge_cases_match_reference():
    ctx = PrimeCtx(3, 5, (RAMIFIED, 1))
    g = IwaSeries(ctx, [1, 0, 1], None, 2, 6)
    # identically zero quotient: numerator of lower degree than the divisor
    f = IwaSeries(ctx, [3, 9], [1], 5, 6, 1, Fraction(1))
    assert state(poly_reduce(f, g)) == state(ref_poly_reduce(f, g))
    assert outcome(divide_exact, f, g) == outcome(ref_divide_exact, f, g)
    # a top coefficient zero at g's precision but not at f's: the step still
    # runs and lowers the precision of the coefficients it touches
    f = IwaSeries(ctx, [1, 2, 9, 0], [0, 0, 0, 27], 5, 6)
    assert poly_reduce(f, g).prec == ref_poly_reduce(f, g).prec == 2
    f = IwaSeries(ctx, [1, 2, 0, 0, 0, 27], None, 5, 6)
    assert state(poly_reduce(f, g)) == state(ref_poly_reduce(f, g))
    assert poly_reduce(f, g).prec == 5
    # empty windows keep the context precision
    for f in (IwaSeries(ctx, [], None, 3, 0), IwaSeries(ctx, [2, 1], None, 3, 2)):
        unit = IwaSeries(ctx, [2], None, 3, 1)
        assert state(poly_reduce(f, unit)) == state(ref_poly_reduce(f, unit))
        assert outcome(divide_exact, f, g) == outcome(ref_divide_exact, f, g)


def test_extension_valued_divisor_is_rejected():
    ctx = PrimeCtx(5, 4, (RAMIFIED, 2))
    g = IwaSeries(ctx, [1, 1], [0, 1], 4, 4)
    f = IwaSeries(ctx, [1, 2, 1], None, 4, 4)
    for fn in (poly_reduce, divide_exact, solve_series_div):
        with pytest.raises(NotDivisible):
            fn(f, g)
