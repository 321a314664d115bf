"""The int-vector division, valuation and evaluation core against PadicElt loops.

The reference functions below divide one PadicElt at a time, with each
coefficient carrying its own precision.  `iwadist` divides whole int vectors
through `_poly`; the two must agree on coefficients, precision, denominator
exponent and growth tag, including the precision edge cases (inputs at
different precisions, quotients that vanish, empty windows).  `eval_at` is
checked the same way against the loop that built its value one PadicElt per
power-basis coordinate.

The number-theory helpers at the end of `_poly` (primality, Jacobi symbol,
square roots mod p, cyclotomic polynomials) are checked against sympy, which
the package itself does not import.
"""

import random
from fractions import Fraction

import pytest

from padiclog import _poly
from padiclog.iwadist import (INF, CharPoint, IwaSeries, NotDivisible,
                              eval_at, growth_check, poly_reduce,
                              solve_series_div, ucyc)
from padiclog.padic import RAMIFIED, UNRAMIFIED, NonUnit, PadicElt, PrimeCtx

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


def contexts(p, prec):
    d = next(d for d in range(2, p) if _poly.jacobi(d, p) == -1)
    return [PrimeCtx(p, prec), PrimeCtx(p, prec, (UNRAMIFIED, d)),
            PrimeCtx(p, prec, (RAMIFIED, 1))]


def rand_coeff(rng, p, prec):
    """Zero, a unit, or a multiple of a random power of p (up to p^prec)."""
    kind = rng.random()
    if kind < 0.3:
        return 0
    return rng.randrange(1, p ** prec) * p ** rng.randrange(0, prec + 1)


def rand_divisor(rng, ctx, deg_cap):
    p, prec = ctx.p, ctx.prec
    dg = rng.randrange(0, min(5, deg_cap))
    a = [rand_coeff(rng, p, prec) for _ in range(dg)]
    lead = rng.randrange(1, p) + p * rng.randrange(0, p ** prec)
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
            # g held with its reciprocal, shorter than some quotients
            held = _poly.HeldDivisor(g.a[:g.degree() + 1], p ** g.coeff_prec(),
                                     rng.randrange(1, 12), ctx.modulus)
            assert state(solve_series_div(y, g, held)) == state(want)
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


def test_extension_valued_divisor_is_rejected():
    ctx = PrimeCtx(5, 4, (RAMIFIED, 2))
    g = IwaSeries(ctx, [1, 1], [0, 1], 4, 4)
    f = IwaSeries(ctx, [1, 2, 1], None, 4, 4)
    for fn in (poly_reduce, solve_series_div):
        with pytest.raises(NotDivisible):
            fn(f, g)


# -- the number-theory helpers against sympy -----------------------------------

# strong pseudoprimes to the bases up to 37 (the second is the least one), and
# Carmichael numbers
PSEUDOPRIMES = [3825123056546413051, 318665857834031151167461,
                561, 1105, 1729, 41041, 825265, 321197185, 5394826801,
                232250619601, 9746347772161]


def test_isprime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [_poly.isprime(n) for n in range(-3, 20000)] == \
        [sympy.isprime(n) for n in range(-3, 20000)]
    for n in PSEUDOPRIMES:
        assert not _poly.isprime(n) and not sympy.isprime(n)
    rng = random.Random(61)
    for _ in range(40):
        digits = rng.randrange(30, 101)
        p = sympy.nextprime(rng.randrange(10 ** (digits - 1), 10 ** digits))
        q = sympy.nextprime(rng.randrange(10 ** (digits // 2), 10 ** (digits // 2 + 1)))
        assert _poly.isprime(p) and _poly.isprime(q)
        assert not _poly.isprime(p * q) and not _poly.isprime(q * q)
        x = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
        assert _poly.isprime(x) == sympy.isprime(x)
    # (4^q + 1)/5 is a strong pseudoprime to base 2; above 3.3 10^24 only
    # the Lucas half of Baillie-PSW rejects it
    for q in (43, 47, 53, 59, 61):
        n = (4 ** q + 1) // 5
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        assert n > _poly._MR_BOUND and _poly._strong_prp(n, 2, d, s)
        assert not _poly.isprime(n) and not sympy.isprime(n)
    with pytest.raises(ValueError):
        _poly.isprime(3.0)


def test_strong_lucas_matches_sympy():
    # the Lucas half of Baillie-PSW, which only inputs above 3.3 10^24 reach
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp
    for n in range(43 ** 2, 60000, 2):
        if all(n % q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
            assert _poly._strong_lucas_prp(n) == is_strong_lucas_prp(n), n
    # strong Lucas pseudoprimes (Selfridge parameters) pass, as they must
    for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
        assert _poly._strong_lucas_prp(n) and not _poly.isprime(n)


def test_jacobi_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 400, 2):
        for a in range(-50, 50):
            assert _poly.jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)
    for n in (0, -3, 4):
        with pytest.raises(ValueError):
            _poly.jacobi(1, n)


def test_sqrt_mod_prime_matches_sympy():
    # the root choice matters: padic lifts this root, so it shows in output
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.residue_ntheory import sqrt_mod
    for p in sympy.primerange(2, 2000):
        for a in range(p):
            assert _poly.sqrt_mod_prime(a, p) == sqrt_mod(a, p), (a, p)


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in list(range(1, 200)) + [2310, 6000]:
        want = sympy.cyclotomic_poly(n).as_poly().all_coeffs()[::-1]
        assert _poly.cyclotomic(n) == [int(c) for c in want], n
    with pytest.raises(ValueError):
        _poly.cyclotomic(0)


def _random_monic(rng):
    return [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 12))] + [1]


@pytest.mark.parametrize("seed", range(12))
def test_monic_divmod_matches_sympy_div(seed):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(seed)
    for g in ([_random_monic(rng) for _ in range(4)]
              + [_poly.cyclotomic(rng.randrange(1, 120)) for _ in range(4)]):
        for length in (0, 1, len(g) - 1, len(g), len(g) + rng.randrange(1, 60)):
            r = [rng.randrange(-50, 51) if rng.random() < 0.7 else 0
                 for _ in range(length)]
            q, rem = _poly.monic_divmod(r, g)
            as_poly = lambda v: sympy.Poly(list(reversed(v)) or [0], x,
                                           domain="ZZ")
            wq, wr = sympy.div(as_poly(r), as_poly(g))
            assert len(rem) == len(g) - 1
            assert as_poly(q) == wq and as_poly(rem) == wr, (r, g)
    with pytest.raises(ValueError, match="monic"):
        _poly.monic_divmod([1, 2, 3], [1, 2])
