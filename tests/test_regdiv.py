import random

import pytest

from padiclog import linsolve
from padiclog._poly import _vp
from padiclog.iwadist import NotDivisible
from padiclog.padic import NonUnit, PadicElt, PrimeCtx
from padiclog.regdiv import (DivisionWitness, MSeries, SpecFamily, _monomials,
                             chevalley_check, deg_eff, divides_trunc, scale_p_exact,
                             specialize)

CTX = PrimeCtx(5, 12)


def rand_mseries(ctx, nvars, deg, rng, cap=8, unit_const=False, prec=None):
    coeffs = {}
    for mo in _monomials(nvars, deg + 1):
        if rng.random() < 0.7:
            coeffs[mo] = rng.randrange(ctx.modulus)
    if unit_const:
        c = coeffs.get((0,) * nvars, 0)
        if c % ctx.p == 0:
            coeffs[(0,) * nvars] = c + 1
    return MSeries(ctx, nvars, coeffs, cap, prec)


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


# -- oracle: the same series as one PadicElt per monomial under the cap ------


def elts(f):
    """f as {monomial: PadicElt at f.prec}, absent (zero) monomials included."""
    return {mo: PadicElt(f.ctx, f.coeff(mo), 0, f.prec)
            for mo in _monomials(f.nvars, f.deg_cap)}


def agrees(f, ref):
    """f holds ref's residues, and f.prec is the precision ref's arithmetic kept."""
    precs = {c.prec for c in ref.values()}
    return (precs == {f.prec} and set(f.coeffs) <= set(ref)
            and all(f.coeff(mo) == c.a for mo, c in ref.items()))


def ref_specialize(f, a):
    """x0 = a with a fresh PadicElt power a ** e[0] for every monomial."""
    out = {}
    for e, c in elts(f).items():
        term = c * PadicElt(f.ctx, a) ** e[0]
        s = out.get(e[1:])
        out[e[1:]] = term if s is None else s + term
    return out


def test_specialize_matches_power_reference():
    rng = random.Random(41)
    for ctx in (CTX, PrimeCtx(3, 7)):
        for _ in range(15):
            f = rand_mseries(ctx, 2, rng.randrange(0, 6), rng,
                             prec=rng.randrange(1, ctx.prec + 1))
            a = ctx.p * rng.randrange(ctx.modulus)
            assert agrees(specialize(f, a), ref_specialize(f, a))


def test_arithmetic_matches_padic_elt_oracle():
    # +, -, * and scale_p_exact coefficient by coefficient on PadicElt, at
    # random series precisions: same residues, and the min precision
    rng = random.Random(48)
    for _ in range(40):
        ctx = PrimeCtx(rng.choice([3, 5]), rng.randrange(2, 9))
        cap = rng.randrange(2, 6)
        f = rand_mseries(ctx, 2, rng.randrange(cap), rng, cap,
                         prec=rng.randrange(1, ctx.prec + 1))
        g = rand_mseries(ctx, 2, rng.randrange(cap), rng, cap,
                         prec=rng.randrange(1, ctx.prec + 1))
        rf, rg = elts(f), elts(g)
        assert agrees(f + g, {mo: rf[mo] + rg[mo] for mo in rf})
        assert agrees(f - g, {mo: rf[mo] - rg[mo] for mo in rf})
        prod = {}
        for e1, c1 in rf.items():
            for e2, c2 in rg.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                if e in rf:
                    prod[e] = prod[e] + c1 * c2 if e in prod else c1 * c2
        assert agrees(f * g, prod)
        k = rng.randrange(f.prec)
        fk = MSeries(ctx, 2, {e: c * ctx.p ** k for e, c in f.coeffs.items()}, cap,
                     f.prec)
        assert agrees(scale_p_exact(fk, k),
                      {mo: c.divide_exact_p(k) for mo, c in elts(fk).items()})
        if k and any(c % ctx.p for c in f.coeffs.values()):
            with pytest.raises(NonUnit):
                scale_p_exact(f, k)


def test_dropped_zero_keeps_series_precision():
    # 7 * 5^4 is zero at prec 4 and is dropped; g is still known only mod 5^4,
    # and so is f + g, also in the term that only f has
    ctx = PrimeCtx(5, 10)
    g = MSeries(ctx, 1, {(0,): 7 * 5 ** 4, (1,): 1}, prec=4)
    assert g.coeffs == {(1,): 1} and g.prec == 4
    f = MSeries(ctx, 1, {(0,): 5 ** 6 + 3, (2,): 5 ** 5})
    s = f + g
    assert s.prec == 4
    assert s.coeffs == {(0,): 3, (1,): 1}
    assert agrees(s, {mo: c + elts(g)[mo] for mo, c in elts(f).items()})


@pytest.mark.parametrize("ext", [("unramified", 2), ("ramified", 2)])
def test_mseries_rejects_extension_context(ext):
    # an extension coefficient has no place in the int representation
    ctx = PrimeCtx(5, 6, ext)
    with pytest.raises(ValueError):
        MSeries(ctx, 1, {(0,): 1, (1,): 1})
    with pytest.raises(ValueError):
        MSeries.from_json(MSeries(PrimeCtx(5, 6), 1, {(0,): 1}).to_json(), ctx)


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
        assert all(sum(e) >= w.cert_degree or _vp(c, CTX.p, diff.prec) >= w.cert_prec
                   for e, c in diff.coeffs.items())


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


def ref_divides_trunc(f, g, window=None):
    """divides_trunc as it was: one solve per degree prefix of the system."""
    if f.is_zero():
        raise NotDivisible("divisor is zero at precision")
    e0 = deg_eff(f)
    if e0 is None:
        raise NotDivisible("divisor has p-content at precision")
    if window is None:
        window = min(f.deg_cap, g.deg_cap) - e0
    prec = min(f.prec, g.prec)
    p = f.ctx.p
    m = p ** prec
    hdeg = window - min((sum(e) for e in f.coeffs), default=0)
    monos_h = _monomials(f.nvars, max(hdeg, 1))
    monos_eq = _monomials(f.nvars, window)
    idx = {mo: i for i, mo in enumerate(monos_h)}
    rows, rhs = [], []
    for mo in monos_eq:
        row = [0] * len(monos_h)
        for e, c in f.coeffs.items():
            j = idx.get(tuple(a - b for a, b in zip(mo, e)))
            if j is not None:
                row[j] = (row[j] + c) % m
        rows.append(row)
        rhs.append(g.coeff(mo) % m)
    upto, sol = 0, None
    for d in range(window):
        upto += sum(1 for mo in monos_eq if sum(mo) == d)
        sol = linsolve.solve_mod_ppow(rows[:upto], rhs[:upto], p, prec)
        if sol is None:
            raise NotDivisible("first obstructed graded piece at degree %d" % d)
    if sol is None:
        raise NotDivisible("empty certification window")
    x, _, loss = sol
    hco = {mo: x[i] for mo, i in idx.items() if x[i] % m}
    return DivisionWitness(MSeries(f.ctx, f.nvars, hco, max(hdeg, 1), prec - loss),
                           window, prec - loss)


def division_outcome(fn, f, g, window):
    try:
        w = fn(f, g, window)
    except NotDivisible as exc:
        return str(exc)
    return ({e: (c, w.quotient.prec) for e, c in w.quotient.coeffs.items()},
            w.cert_degree, w.cert_prec)


def test_divides_trunc_matches_prefix_reference():
    # one solve of the whole graded system: same quotient and precision as
    # the prefix-by-prefix solves, and the same first obstructed degree
    rng = random.Random(43)
    outcomes = set()
    for trial in range(60):
        ctx = PrimeCtx(rng.choice([3, 5]), rng.randrange(2, 9))
        cap = rng.randrange(3, 8)
        f = rand_mseries(ctx, 2, rng.randrange(1, 3), rng, cap)
        if trial % 3:
            # a non-unit constant term: f need not divide every g
            c0 = ctx.p * rng.randrange(9) - f.coeff((0, 0))
            f = f + MSeries.const(ctx, 2, c0, cap)
        g = f * rand_mseries(ctx, 2, 3, rng, cap)
        if trial % 2:
            # plant a term at a random degree, which f may not absorb
            d = rng.randrange(cap)
            k = rng.randrange(d + 1)
            g = g + MSeries(ctx, 2, {(k, d - k): 1}, cap)
        for window in (None, trial % 4, rng.randrange(1, cap + 2)):
            got = division_outcome(divides_trunc, f, g, window)
            assert got == division_outcome(ref_divides_trunc, f, g, window)
            outcomes.add(type(got))
    assert outcomes == {str, tuple}


def test_solve_kernel_spans_solution_lattice():
    # small systems mod p^npow, enumerated: x solves A x = rhs and the kernel
    # generators span exactly the vectors with A z = 0
    rng = random.Random(44)
    for _ in range(40):
        p, npow = rng.choice([2, 3]), rng.randrange(1, 3)
        m = p ** npow
        nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rng.randrange(m) * p ** rng.randrange(2) for _ in range(nc)]
                for _ in range(nr)]
        x0 = [rng.randrange(m) for _ in range(nc)]
        rhs = [sum(a * b for a, b in zip(row, x0)) % m for row in rows]
        x, kernel, loss = linsolve.solve_mod_ppow(rows, rhs, p, npow)
        assert [sum(a * b for a, b in zip(row, x)) % m for row in rows] == rhs
        assert 0 <= loss <= npow
        vecs = [[(z // m ** i) % m for i in range(nc)] for z in range(m ** nc)]
        lattice = {tuple(z) for z in vecs
                   if all(sum(a * b for a, b in zip(row, z)) % m == 0
                          for row in rows)}
        span = {(0,) * nc}
        for gen in kernel:
            span = {tuple((s + t * g) % m for s, g in zip(z, gen))
                    for z in span for t in range(m)}
        assert span == lattice


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
    assert not any(ok for _, ok in rpt.point_results)


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
            assert _vp(c, ctx.p, prod.prec) >= n - t


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


def test_mseries_from_json_keeps_series_precision():
    # a series' own precision caps the request's: digits beyond it are unknown
    blob = MSeries(PrimeCtx(5, 4), 1, {(0,): 1, (1,): 626}).to_json()
    f = MSeries.from_json(blob, PrimeCtx(5, 10))
    assert f.prec == 4 and f.coeff((1,)) == 1
    assert MSeries.from_json(blob, PrimeCtx(5, 3)).prec == 3
    del blob["prec"]
    assert MSeries.from_json(blob, PrimeCtx(5, 10)).prec == 10


@pytest.mark.parametrize("bad", [{"prec": "abc"}, {"prec": -1},
                                 {"coeffs": {"0,0": "1", "-1,2": "3"}}])
def test_mseries_from_json_rejects_bad_fields(bad):
    blob = MSeries(CTX, 2, {(0, 0): 1}).to_json()
    blob.update(bad)
    with pytest.raises(ValueError):
        MSeries.from_json(blob, CTX)
