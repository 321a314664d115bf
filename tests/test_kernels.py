"""The Kronecker multiply and the substitution kernel against independent references.

The references are the schoolbook convolution and the Pascal-row basis
changes that `_poly` used before it had one substitution kernel, a Horner
composition on the schoolbook multiply, and evaluation at random points
where a quadratic reference would be too slow.  The callers of the kernel
(`frobenius`, `gamma_act`, `twist`, `mellin`, `phi_cyc`) are checked against
the per-row and basis-change formulas they replaced.
"""

import importlib
import pkgutil
import random

import pytest

import padiclog
from padiclog import _poly
from padiclog.cycser import (FiniteGroupRingElt, compose, frobenius, gamma_act,
                             mellin)
from padiclog.iwadist import IwaSeries, phi_cyc, twist, ucyc
from padiclog.padic import UNRAMIFIED, PrimeCtx

SHORT = [0, 1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 255, 257]
LONG = [2187, 3125]
MODULI = [3, 5, 7, 3 ** 12, 5 ** 14, 7 ** 20, 5 ** 40]


# -- references ------------------------------------------------------------------


def ref_vec_mul(xs, ys, m, cap):
    """Schoolbook convolution truncated to degree < cap."""
    out = [0] * min(cap, len(xs) + len(ys) - 1 if xs and ys else 0)
    if not out:
        return []
    for i, x in enumerate(xs):
        if x == 0 or i >= cap:
            continue
        jmax = min(len(ys), cap - i)
        for j in range(jmax):
            y = ys[j]
            if y:
                out[i + j] = (out[i + j] + x * y) % m
    return out


def ref_pascal_rows(count, width, m):
    """Rows 0..count-1 of Pascal's triangle mod m, each cut to width entries."""
    row = [1]
    for _ in range(count):
        yield row
        nxt = [1] + [(row[j - 1] + row[j]) % m for j in range(1, len(row))]
        if len(row) < width:
            nxt.append(1)
        row = nxt


def ref_to_onepx(coeffs, m, n=None):
    """X^i = sum_j C(i,j) (-1)^(i-j) (1+X)^j, one Pascal row per coefficient."""
    if n is None:
        n = len(coeffs)
    out = [0] * n
    if not n:
        return out
    for i, (c, row) in enumerate(zip(coeffs, ref_pascal_rows(len(coeffs), n, m))):
        for j in range(min(i, n - 1) + 1):
            sign = -1 if (i - j) % 2 else 1
            out[j] = (out[j] + sign * row[j] * c) % m
    return out


def ref_from_onepx(bs, m, n=None):
    """(1+X)^j = sum_i C(j,i) X^i, one Pascal row per coefficient."""
    if n is None:
        n = len(bs)
    out = [0] * n
    if not n:
        return out
    for j, (b, row) in enumerate(zip(bs, ref_pascal_rows(len(bs), n, m))):
        for i in range(min(j, n - 1) + 1):
            out[i] = (out[i] + row[i] * b) % m
    return out


def ref_compose(f, g, m, cap):
    """f(g) mod (m, X^cap) by Horner on the schoolbook multiply."""
    out = [0] * cap
    for c in reversed(f):
        out = (ref_vec_mul(out, g, m, cap) + [0] * cap)[:cap]
        if cap:
            out[0] = (out[0] + c) % m
    return out


def ev(xs, t, m):
    """The polynomial with coefficients xs at X = t, mod m."""
    acc = 0
    for c in reversed(xs):
        acc = (acc * t + c) % m
    return acc


def rand_vec(rng, n, m):
    """Unreduced, possibly negative entries, sometimes with trailing zeros."""
    xs = [rng.randint(-3 * m, 3 * m) for _ in range(n)]
    if n and rng.random() < 0.3:
        z = rng.randint(1, n)
        xs[n - z:] = [0] * z
    return xs


# -- vec_mul ---------------------------------------------------------------------


@pytest.mark.parametrize("m", MODULI)
def test_vec_mul_matches_schoolbook(m):
    rng = random.Random(m)
    for la in SHORT:
        lb = rng.choice(SHORT)
        xs, ys = rand_vec(rng, la, m), rand_vec(rng, lb, m)
        full = la + lb - 1
        for cap in (0, max(1, full // 2), full, full + 7):
            assert _poly.vec_mul(xs, ys, m, cap) == ref_vec_mul(xs, ys, m, cap)
            assert _poly.vec_mul(xs, xs, m, cap) == ref_vec_mul(xs, xs, m, cap)


@pytest.mark.parametrize("n", LONG)
def test_vec_mul_long(n):
    rng = random.Random(n)
    for m in (3 ** 12, 5 ** 40):
        xs, ys = rand_vec(rng, n, m), rand_vec(rng, n, m)
        assert _poly.vec_mul(xs, ys, m, 150) == ref_vec_mul(xs, ys, m, 150)
        short = rand_vec(rng, 33, m)
        assert _poly.vec_mul(xs, short, m, 300) == ref_vec_mul(xs, short, m, 300)
        out = _poly.vec_mul(xs, ys, m, 3 * n)
        assert len(out) == 2 * n - 1
        for _ in range(3):
            t = rng.randrange(m)
            assert ev(out, t, m) == ev(xs, t, m) * ev(ys, t, m) % m


# -- basis changes and compose ---------------------------------------------------------


@pytest.mark.parametrize("m", MODULI)
def test_basis_changes_match_pascal_rows(m):
    rng = random.Random(m + 1)
    for length in SHORT:
        xs = rand_vec(rng, length, m)
        for n in (None, length // 2, length + 5):
            assert _poly.to_onepx_basis(xs, m, n) == ref_to_onepx(xs, m, n)
            assert _poly.from_onepx_basis(xs, m, n) == ref_from_onepx(xs, m, n)


@pytest.mark.parametrize("n", LONG)
def test_basis_changes_long(n):
    rng = random.Random(n + 1)
    m = 5 ** 14
    xs = rand_vec(rng, n, m)
    assert _poly.to_onepx_basis(xs, m, 60) == ref_to_onepx(xs, m, 60)
    assert _poly.from_onepx_basis(xs, m, 60) == ref_from_onepx(xs, m, 60)
    to = _poly.to_onepx_basis(xs, m)
    back = _poly.from_onepx_basis(xs, m)
    assert len(to) == len(back) == n
    for _ in range(3):
        t = rng.randrange(m)
        # sum_j to_j (1+t)^j = sum_i x_i t^i, and the other way round
        assert ev(to, t + 1, m) == ev(xs, t, m)
        assert ev(back, t, m) == ev(xs, t + 1, m)
    assert _poly.from_onepx_basis(to, m) == [x % m for x in xs]


@pytest.mark.parametrize("m", MODULI)
def test_compose_matches_horner(m):
    rng = random.Random(m + 2)
    for length in SHORT[:12]:
        f = rand_vec(rng, length, m)
        g = rand_vec(rng, rng.randint(1, 6), m)
        if rng.random() < 0.5:
            g[0] = 0
        for cap in (0, 1, max(1, length // 2), length + 3, 3 * length + 2):
            assert _poly.compose(f, g, m, cap) == ref_compose(f, g, m, cap)


# -- the callers ---------------------------------------------------------------------


def one_plus_pi_pow(ctx, e, cap):
    """(1+pi)^e truncated at cap, at the context precision."""
    return IwaSeries(ctx, _poly.onepx_pow(e, cap, ctx.p, ctx.prec), None,
                     ctx.prec, cap)


@pytest.mark.parametrize("p,prec", [(3, 12), (5, 10), (7, 20)])
def test_frobenius_and_gamma_act_match_horner(p, prec):
    ctx = PrimeCtx(p, prec)
    rng = random.Random(p)
    for cap in (p, p + 1, 2 * p + 3, 40, 81):
        f = IwaSeries(ctx, rand_vec(rng, cap, ctx.modulus), None, None, cap)
        phi_pi = one_plus_pi_pow(ctx, p, cap) - IwaSeries.const(ctx, 1, cap)
        assert frobenius(f).a == compose(f, phi_pi).a
        for a in (1, 2, p + 1, p * p + p - 1, 10 ** 6 + 1):
            if a % p:
                ga = one_plus_pi_pow(ctx, a, cap) - IwaSeries.const(ctx, 1, cap)
                assert gamma_act(a, f).a == compose(f, ga).a


def ref_twist_vec(vec, c, m, n):
    bs = ref_to_onepx(vec, m)
    return ref_from_onepx([b * pow(c, k, m) for k, b in enumerate(bs)], m, n)


def test_twist_matches_basis_round_trip():
    rng = random.Random(5)
    for p, prec, ext in [(3, 10, None), (5, 8, (UNRAMIFIED, 2)), (7, 6, None)]:
        ctx = PrimeCtx(p, prec, ext)
        m = ctx.modulus
        for cap in (1, 2, 9, 27, 50):
            a = rand_vec(rng, cap, m)
            b = rand_vec(rng, cap, m) if ext else None
            f = IwaSeries(ctx, a, b, prec, cap, 1)
            for j in (-3, -1, 0, 1, 2, 5):
                c = pow(ucyc(ctx), j, m)
                tw = twist(f, j)
                assert tw.a == ref_twist_vec(f.a, c, m, cap)
                assert tw.b == (ref_twist_vec(f.b, c, m, cap) if f.b else None)
                assert (tw.prec, tw.deg_cap, tw.denom_exp) == (prec, cap, 1)


def test_mellin_matches_row_sum():
    rng = random.Random(6)
    for p, prec in [(3, 12), (5, 9), (7, 5)]:
        ctx = PrimeCtx(p, prec)
        m = ctx.modulus
        for level in (0, 1, 2):
            q = p ** (level + 1)
            units = [a for a in range(q) if a % p]
            lam = FiniteGroupRingElt(ctx, level, {a: rng.randrange(m) for a in
                                                  rng.sample(units, len(units) // 2 + 1)})
            for cap in (None, q // 2 + 1, q + 4):
                width = q if cap is None else cap
                want = [0] * width
                for a, c in lam.coeffs.items():
                    row = _poly.onepx_pow(a, width, p, prec)
                    want = [(w + c * r) % m for w, r in zip(want, row)]
                got = mellin(lam, cap)
                assert (got.a, got.deg_cap, got.prec) == (want, width, prec)


def test_phi_cyc_matches_row_sum():
    for p, n, prec in [(3, 1, 10), (3, 3, 10), (5, 2, 8), (7, 1, 6), (7, 2, 6)]:
        ctx = PrimeCtx(p, prec)
        m = ctx.modulus
        deg = p ** n - p ** (n - 1)
        for cap in (deg + 1, deg + 10, 2 * deg + 1):
            want = [0] * cap
            for j in range(p):
                row = _poly.onepx_pow(j * p ** (n - 1), cap, p, prec)
                want = [(w + r) % m for w, r in zip(want, row)]
            got = phi_cyc(ctx, n, cap)
            assert (got.a, got.b, got.deg_cap) == (want, None, cap)


# -- no state that can grow ---------------------------------------------------------


def test_no_module_level_containers():
    """No cache or table may grow for the life of the process: no module of
    the package holds a dict, list or set, except the registry of check suites."""
    names = ["padiclog"] + ["padiclog." + mi.name
                            for mi in pkgutil.iter_modules(padiclog.__path__)]
    found = []
    for name in names:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            if attr.startswith("__") or (name, attr) == ("padiclog.checks", "SUITES"):
                continue
            if isinstance(value, (dict, list, set)):
                found.append("%s.%s" % (name, attr))
    assert found == []
