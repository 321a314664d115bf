"""The Kronecker multiply, the substitution and the division kernels against
independent references.

The references are the schoolbook convolution and the Pascal-row basis
changes that `_poly` used before it had one substitution kernel, a Horner
composition on the schoolbook multiply, exact binomial rows for long sparse
shifts, the schoolbook long division that
`_poly` used before its Newton inverse, the schoolbook power-series
division, and evaluation at random points where a quadratic reference would
be too slow.
The callers of the kernel (`twist`, `phi_cyc`) are checked against the
per-row and basis-change formulas they replaced.
"""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import padiclog
from padiclog import _poly
from padiclog.iwadist import IwaSeries, phi_cyc, twist, ucyc
from padiclog.padic import UNRAMIFIED, PrimeCtx

SHORT = [0, 1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 255, 257]
LONG = [2187, 3125]
MODULI = [3, 5, 7, 3 ** 12, 5 ** 14, 7 ** 20, 5 ** 40]
# the shift kernel's slot width and folds depend on bits(m): add tiny moduli,
# powers of 2 and one above 2^128
SHIFT_MODULI = MODULI + [2, 4, 2 ** 40, 3 ** 90]
# (length, working modulus) of the Mellin reads of the log-matrix ladder
LADDER = [(81, 3 ** 18), (243, 3 ** 22), (343, 7 ** 15), (625, 5 ** 20), (729, 3 ** 24)]


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


def ref_poly_divmod_top(f, g, m, p, npow):
    """Schoolbook long division f = q*g + r from the top, on unreduced f."""
    g = _poly.vec_trim(g)
    linv = pow(g[-1], -1, m)
    r = list(f)
    dg = len(g) - 1
    if len(r) - 1 < dg:
        return [], r
    q = [0] * (len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] % m
        if c == 0:
            continue
        qc = (c * linv) % m
        q[i - dg] = qc
        for j, gj in enumerate(g):
            r[i - dg + j] = (r[i - dg + j] - qc * gj) % m
    return q, _poly.vec_trim(r)


def ref_series_inverse(g, m, n):
    """1/g mod (m, X^n), one coefficient at a time."""
    ginv0 = pow(g[0], -1, m)
    out = [0] * n
    for i in range(n):
        acc = 1 if i == 0 else 0
        for j in range(1, min(i, len(g) - 1) + 1):
            acc -= g[j] * out[i - j]
        out[i] = (acc * ginv0) % m
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
        # a factor that trims to a constant, on either side
        const = [rng.randrange(1, m)] + [0] * rng.randint(0, 5)
        for cap in (150, n, 3 * n):
            assert _poly.vec_mul(xs, const, m, cap) == ref_vec_mul(xs, const, m, cap)
            assert _poly.vec_mul(const, ys, m, cap) == ref_vec_mul(const, ys, m, cap)
        out = _poly.vec_mul(xs, ys, m, 3 * n)
        assert len(out) == 2 * n - 1
        for _ in range(3):
            t = rng.randrange(m)
            assert ev(out, t, m) == ev(xs, t, m) * ev(ys, t, m) % m


def test_vec_trim_matches_stepwise():
    # runs of zeros shorter than, equal to and longer than the 64-entry chunk
    def ref_trim(xs):
        n = len(xs)
        while n and xs[n - 1] == 0:
            n -= 1
        return xs[:n]

    rng = random.Random(9)
    for _ in range(400):
        xs = []
        for _ in range(rng.randint(0, 6)):
            xs += [0] * rng.choice([0, 1, 63, 64, 65, 128, rng.randint(0, 300)])
            xs += [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        assert _poly.vec_trim(xs) == ref_trim(xs)


def test_vec_add_reduces_every_entry():
    rng = random.Random(10)
    for m in MODULI + [2, 2 ** 40]:
        for _ in range(20):
            xs = rand_vec(rng, rng.randint(0, 40), m)
            ys = rand_vec(rng, rng.randint(0, 40), m)
            n = max(len(xs), len(ys))
            want = [((xs[i] if i < len(xs) else 0) + (ys[i] if i < len(ys) else 0)) % m
                    for i in range(n)]
            assert _poly.vec_add(xs, ys, m) == want
            assert _poly.vec_add(ys, xs, m) == want


# -- division ----------------------------------------------------------------------


def unit_lead(rng, n, p, m):
    """A divisor of n coefficients with a unit leading coefficient, entries
    unreduced and possibly negative, sometimes padded with zeros."""
    g = rand_vec(rng, n - 1, m) + [rng.choice([1, -1, p + 1]) + p * rng.randint(-m, m)]
    return g + [0] * rng.choice([0, 0, 2])


def check_divmod(f, g, m, p, npow):
    q, r = _poly.poly_divmod_top(f, g, m, p, npow)
    rq, rr = ref_poly_divmod_top(f, g, m, p, npow)
    assert q == rq
    assert r == _poly.vec_trim([c % m for c in rr])


DIV_PRIMES = {3: [1, 2, 12], 5: [1, 9, 40], 7: [20], 2: [1, 7, 64]}
# quotient and divisor lengths on both sides of the Newton switches
DIV_LENGTHS = [1, 2, 3, _poly.DIV_NEWTON_MIN_Q - 1, _poly.DIV_NEWTON_MIN_Q,
               _poly.NEWTON_MIN_G, _poly.NEWTON_MIN_G + 1, 79, 116]


@pytest.mark.parametrize("p", sorted(DIV_PRIMES))
def test_poly_divmod_top_matches_schoolbook(p):
    rng = random.Random(p + 20)
    for npow in DIV_PRIMES[p]:
        m = p ** npow
        for lg in DIV_LENGTHS:
            for dq in DIV_LENGTHS + [0, 240]:
                g = unit_lead(rng, lg, p, m)
                dg = len(_poly.vec_trim(g)) - 1
                f = rand_vec(rng, dg + dq, m)
                check_divmod(f, g, m, p, npow)
                # entries that vanish only mod m, and a long zero tail (the
                # shape of the antisym dividends): sized after the trim
                check_divmod([c * m for c in f], g, m, p, npow)
                check_divmod(f + [0] * 240, g, m, p, npow)
                check_divmod(f[:dg] + [m, 0, 2 * m] * 30, g, m, p, npow)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_poly_divmod_top_property(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    npow = data.draw(st.integers(min_value=1, max_value=40))
    m = p ** npow
    entry = st.integers(min_value=-3 * m, max_value=3 * m)
    f = data.draw(st.lists(entry, max_size=260))
    g = data.draw(st.lists(entry, max_size=130))
    g.append(data.draw(st.sampled_from([1, -1, p + 1])) + p * data.draw(entry))
    g += [0] * data.draw(st.integers(min_value=0, max_value=3))
    check_divmod(f, g, m, p, npow)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_series_inverse_property(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = p ** data.draw(st.integers(min_value=1, max_value=40))
    n = data.draw(st.integers(min_value=0, max_value=300))
    g = data.draw(st.lists(st.integers(min_value=-m, max_value=m), min_size=1,
                           max_size=300))
    g[0] = g[0] * p + 1
    h = _poly.series_inverse(g, m, n)
    assert h == ref_series_inverse(g, m, n)
    # g h = 1 mod X^n
    assert _poly.vec_mul(g, h, m, n) == ([1 % m] + [0] * (n - 1) if n else [])


# -- basis changes and substitutions ------------------------------------------------


@pytest.mark.parametrize("m", SHIFT_MODULI)
def test_basis_changes_match_pascal_rows(m):
    # SHORT holds the lengths 2^j - 1 and 2^j + 1 on both sides of the last
    # level the kernel runs without reduction, for every modulus here
    rng = random.Random(m + 1)
    for length in SHORT:
        xs = rand_vec(rng, length, m)
        for n in (None, 0, 1, length // 2, length + 5):
            assert _poly.to_onepx_basis(xs, m, n) == ref_to_onepx(xs, m, n)
            assert _poly.from_onepx_basis(xs, m, n) == ref_from_onepx(xs, m, n)


@pytest.mark.parametrize("length,m", LADDER)
def test_basis_changes_ladder_sizes(length, m):
    rng = random.Random(length + 3)
    xs = rand_vec(rng, length, m)
    for n in (None, length // 3):
        assert _poly.to_onepx_basis(xs, m, n) == ref_to_onepx(xs, m, n)
        assert _poly.from_onepx_basis(xs, m, n) == ref_from_onepx(xs, m, n)


MODULUS = st.integers(min_value=1, max_value=2 ** 130)
VECTOR = st.lists(st.integers(min_value=-2 ** 140, max_value=2 ** 140), max_size=300)


@settings(deadline=None)
@given(m=MODULUS, xs=VECTOR)
def test_basis_changes_invert_each_other(m, xs):
    want = [x % m for x in xs]
    assert _poly.from_onepx_basis(_poly.to_onepx_basis(xs, m), m) == want
    assert _poly.to_onepx_basis(_poly.from_onepx_basis(xs, m), m) == want


@settings(deadline=None)
@given(m=MODULUS, xs=VECTOR, t=st.integers())
def test_basis_changes_shift_the_argument(m, xs, t):
    # from: sum_j b_j (1+X)^j at X = t is sum_j b_j (t+1)^j; to the other way
    assert ev(_poly.from_onepx_basis(xs, m), t, m) == ev(xs, t + 1, m)
    assert ev(_poly.to_onepx_basis(xs, m), t + 1, m) == ev(xs, t, m)


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


def test_onepx_rem_matches_basis_round_trip():
    # v mod (Y-1)^cap in Y = 1+X is the truncation mod X^cap read back in Y
    rng = random.Random(7)
    for p, npow in [(2, 6), (3, 12), (5, 9), (7, 5), (5, 40)]:
        m = p ** npow
        for cap in (1, 2, p, p * p, 27, 81):
            for length in (0, 1, cap - 1, cap, cap + 1, 2 * cap, 3 * cap + 5):
                v = rand_vec(rng, length, m)
                want = ref_to_onepx(ref_from_onepx(v, m, cap), m, cap)
                assert _poly.onepx_rem(v, cap, p, npow) == want, (p, cap, length)


@pytest.mark.parametrize("n", LONG)
def test_onepx_rem_long(n):
    rng = random.Random(n + 2)
    p, npow = {2187: (3, 20), 3125: (5, 14)}[n]
    m = p ** npow
    v = rand_vec(rng, n + n // 2, m)
    got = _poly.onepx_rem(v, n, p, npow)
    assert got == _poly.to_onepx_basis(_poly.from_onepx_basis(v, m, n), m, n)


def test_binom_row_negative_exponent():
    # (1+X)^(-c) = sum_i (-1)^i C(c+i-1, i) X^i
    from math import comb
    for p, npow in [(2, 8), (3, 6), (5, 4)]:
        m = p ** npow
        for c in (1, 2, p, p ** 3, 7 * p + 1):
            want = [(-1) ** i * comb(c + i - 1, i) % m for i in range(40)]
            assert _poly.binom_row_mod(-c, 40, p, npow, m) == want


@pytest.mark.parametrize("m", MODULI)
def test_compose_matches_horner(m):
    # f(a + bX) for random a, b: the substitution kernel of the twists
    rng = random.Random(m + 2)
    for length in SHORT[:12]:
        f = rand_vec(rng, length, m)
        a, b = rng.randint(-2 * m, 2 * m), rng.randint(-2 * m, 2 * m)
        for cap in (0, 1, max(1, length // 2), length + 3, 3 * length + 2):
            assert _poly.taylor_shift(f, a, b, m, cap) == ref_compose(f, [a, b], m, cap)


def ref_linear_shift(f, a, b, m, n):
    """sum_j f[j] (a + bX)^j mod (m, X^n) by Horner, one coefficient at a time."""
    out = [0] * n
    for c in reversed(f):
        nxt = [0] * n
        for i, x in enumerate(out):
            nxt[i] = (nxt[i] + a * x) % m
            if i + 1 < n:
                nxt[i + 1] = (nxt[i + 1] + b * x) % m
        if n:
            nxt[0] = (nxt[0] + c) % m
        out = nxt
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_linear_shift_matches_horner(p):
    # m in {1, p, p^k}; a and b anywhere (zero, negative, past m, the twist
    # pair (c - 1, c) and the shift (1, 1)); empty input, and inputs longer
    # than n, whose high coefficients still reach the low degrees
    rng = random.Random(p)
    for m in (1, p, p ** 2, p ** 9, p ** 40):
        c = rng.randrange(1, m) if m > 1 else 0
        pairs = [(1, 1), (c - 1, c), (0, 1), (5, 0), (-1, 1), (0, 0),
                 (rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m))]
        for a, b in pairs:
            for length in (0, 1, 2, 7, 16, 33, 70):
                f = rand_vec(rng, length, m)
                for n in (0, 1, length // 3, length, length + 4):
                    got = _poly.taylor_shift(f, a, b, m, n)
                    assert got == ref_linear_shift(f, a, b, m, n), (m, a, b, length, n)


def sparse_vec(rng, length, nonzero, m):
    """A vector of the given length with `nonzero` nonzero entries in [1, m)
    at random places."""
    xs = [0] * length
    for i in rng.sample(range(length), nonzero):
        xs[i] = rng.randrange(1, m)
    return xs


@pytest.mark.parametrize("p", [3, 5, 7])
def test_taylor_shift_sparse_matches_horner(p):
    # the exact low levels are built from the nonzeros: 0, 1, a few and all
    # of them nonzero, lengths off the powers of two, n below and above the
    # length, the shift (1, 1) and a random (a, b)
    rng = random.Random(10 + p)
    for m in (p, p ** 9, p ** 40):
        pairs = [(1, 1), (rng.randrange(m), rng.randrange(m))]
        for length in (1, 6, 27, 50, 100):
            for nonzero in sorted({0, 1, min(3, length), length}):
                f = sparse_vec(rng, length, nonzero, m)
                for a, b in pairs:
                    for n in (length // 2, length, length + 5):
                        got = _poly.taylor_shift(f, a, b, m, n)
                        assert got == ref_compose(f, [a, b], m, n), \
                            (m, a, b, length, nonzero, n)


# lengths at 2^j - 1 and 2^j + 1, and on both sides of the two-point switch
SHIFTS_LENGTHS = [1, 2, 31, 33, 63, 65, 127, 129, _poly.TWO_POINT_MIN - 1,
                  _poly.TWO_POINT_MIN, _poly.TWO_POINT_MIN + 1, 255, 257]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_taylor_shifts_match_horner(p):
    # one call shifts 1-3 vectors of unequal lengths on one plan, a zero
    # vector among them when there are two or more; each output is that
    # vector's own shift, cut below and above the longest length
    rng = random.Random(30 + p)
    calls = 0
    for m in (p, p ** 9, p ** 40):
        c = rng.randrange(1, m)
        pairs = [(1, 1), (c - 1, c),
                 (rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m))]
        for count in (1, 2, 3):
            for a, b in pairs:
                lengths = rng.sample(SHIFTS_LENGTHS, count)
                vecs = [rand_vec(rng, length, m) for length in lengths]
                if count > 1:
                    vecs[rng.randrange(count)] = [0] * rng.choice(lengths)
                longest = max(lengths)
                want = [ref_linear_shift(v, a, b, m, longest + 3) for v in vecs]
                for n in (longest // 2, longest + 3):
                    got = _poly.taylor_shift_terms([terms_of(v, m) for v in vecs],
                                                   a, b, m, n)
                    assert got == [w[:n] for w in want], (m, a, b, lengths, n)
                calls += 1
    assert calls == 27


@pytest.mark.parametrize("length", [129, _poly.TWO_POINT_MIN - 1,
                                    _poly.TWO_POINT_MIN, 255])
def test_taylor_shifts_fold_target_worst_case(length):
    # every coefficient m - 1, at a modulus whose slot of
    # 2 bits(m) + 6 + bits(length) bits is a whole number of bytes: the
    # folds of each level stop at the bound the slot allows, with no
    # rounding to spare, on the one-point tree and the two-point one
    for p in (3, 5):
        e = 9
        while (2 * (p ** e).bit_length() + 6 + length.bit_length()) % 8:
            e += 1
        m = p ** e
        vecs = [[m - 1] * length, [m - 1] * (length // 2 + 1)]
        for a, b in ((1, 1), (m - 2, m - 1)):
            got = _poly.taylor_shift_terms([terms_of(v, m) for v in vecs],
                                           a, b, m, length)
            assert got == [ref_linear_shift(v, a, b, m, length) for v in vecs]


@pytest.mark.parametrize("length,m", LADDER)
def test_taylor_shift_ladder_sparsity(length, m):
    # the Mellin reads of the ladder have few nonzeros, p^i apart
    rng = random.Random(length)
    f = [0] * length
    for i in range(0, length, 9):
        f[i] = rng.randrange(m)
    f[-1] = rng.randrange(1, m)
    assert _poly.taylor_shift(f, 1, 1, m, length) == ref_linear_shift(f, 1, 1, m, length)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sparse_mul_matches_schoolbook(p):
    def schoolbook(xs, ys, m):
        out = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i + j] = (out[i + j] + x * y) % m
        return out

    def terms(v):
        return [(i, c) for i, c in enumerate(v) if c]

    rng = random.Random(20 + p)
    for m in (p, p ** 9, p ** 40):
        for lx, ly in ((1, 1), (1, 9), (7, 30), (40, 13)):
            for nx in sorted({0, 1, lx}):
                for ny in sorted({0, min(2, ly), ly}):
                    xs = sparse_vec(rng, lx, nx, m)
                    ys = sparse_vec(rng, ly, ny, m)
                    assert sorted(_poly.sparse_mul(terms(xs), terms(ys), m)) == \
                        terms(schoolbook(xs, ys, m))
    # phi^i(c) in Y: nonzeros p^i apart, as the log-matrix chain multiplies
    m = p ** 20
    c = [rng.randrange(m) for _ in range(2 * (p - 1) + 1)]
    spread = [0] * ((len(c) - 1) * p ** 2 + 1)
    spread[::p ** 2] = c
    assert sorted(_poly.sparse_mul(terms(spread), terms(c), m)) == \
        terms(schoolbook(spread, c, m))
    assert _poly.sparse_mul([], terms(c), m) == []


# -- the term core ---------------------------------------------------------------


def terms_of(v, m):
    """The nonzero (exponent, coefficient) terms of v mod m."""
    return [(i, c % m) for i, c in enumerate(v) if c % m]


def density_vec(rng, length, density, m):
    """A vector whose entries are nonzero with the given probability, with
    a nonzero top entry."""
    xs = [rng.randrange(1, m) if rng.random() < density else 0
          for _ in range(length)]
    if xs:
        xs[-1] = rng.randrange(1, m)
    return xs


def leaf_blocks(monkeypatch):
    """The number of leaf blocks of each vector that the next calls pack."""
    seen, pack = [], _poly._pack

    def spy(xs, k):
        seen.append(len(xs))
        return pack(xs, k)
    monkeypatch.setattr(_poly, "_pack", spy)
    return seen


# lengths about the exact-fit widths and on both sides of one merge
TERM_LENGTHS = [1, 2, 9, 33, 64, 65, 130, 257]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("width", [None, 16])
def test_taylor_shift_terms_match_horner(p, width, monkeypatch):
    # the core on nonzero terms: a single term, sparse vectors on both sides
    # of the walk's quarter, dense ones and zero vectors, one to three a
    # call, n below and above the length, for the shift, a twist's (c - 1,
    # c) and a random (a, b); with the walk's width cut to 16 the level
    # loop runs after it, two-point from TWO_POINT_MIN
    if width:
        monkeypatch.setattr(_poly, "WALK_WIDTH", width)
    rng = random.Random(50 + p)
    for m in (p, p ** 9, p ** 40):
        c = rng.randrange(1, m) if m > 1 else 0
        pairs = [(1, 1), (c - 1, c), (rng.randrange(m), rng.randrange(m))]
        for length in TERM_LENGTHS + ([200, 300] if width else []):
            for density in (0, 0.05, 0.25, 0.3, 1):
                a, b = rng.choice(pairs)
                vecs = [density_vec(rng, length, density, m)]
                if rng.random() < 0.5:
                    vecs.append([0] * rng.randrange(length + 1))
                if rng.random() < 0.5:
                    vecs.append(density_vec(rng, rng.randint(1, length), 0.1, m))
                for n in (length // 3, length + 2):
                    got = _poly.taylor_shift_terms([terms_of(v, m) for v in vecs],
                                                   a, b, m, n)
                    assert got == [ref_linear_shift(v, a, b, m, n) for v in vecs], \
                        (m, a, b, length, density, n)


@pytest.mark.parametrize("length", [81, 243, 729])
def test_taylor_shift_terms_walk_leaves_one_merge(length, monkeypatch):
    # two sparse vectors of the ladder's shape take leaves of half their
    # length: two blocks each, one merge; dense ones keep the exact-fit
    # tree, and so does a twist
    m = 3 ** 20
    rng = random.Random(length)
    sparse = [density_vec(rng, length, 0.1, m) for _ in range(2)]
    dense = [density_vec(rng, length, 1, m) for _ in range(2)]
    c = pow(4, 5, m)
    for vecs, (a, b), blocks in ((sparse, (1, 1), [2, 2]),
                                 (dense, (1, 1), None),
                                 (sparse, (c - 1, c), None)):
        seen = leaf_blocks(monkeypatch)
        got = _poly.taylor_shift_terms([terms_of(v, m) for v in vecs], a, b, m,
                                       length)
        assert got == [ref_linear_shift(v, a, b, m, length) for v in vecs]
        if blocks:
            assert seen == blocks
        else:
            assert min(seen) > 2


def ref_sparse_binomial(terms, m, n):
    """sum c (1+X)^e mod (m, X^n) over the terms, one exact binomial row
    C(e, j) a term."""
    out = [0] * n
    for e, c in terms:
        binom = 1
        for j in range(min(e + 1, n)):
            out[j] += c * binom
            binom = binom * (e - j) // (j + 1)
    return [x % m for x in out]


@pytest.mark.parametrize("length", [2 * _poly.WALK_WIDTH, 2 * _poly.WALK_WIDTH + 2])
def test_taylor_shift_terms_at_the_width_cap(length):
    # at 2 WALK_WIDTH coefficients the walk leaves one merge; past it the
    # level loop runs on from WALK_WIDTH, two-point
    rng = random.Random(length)
    m = 5 ** 17
    vecs = [density_vec(rng, length, 0.03, m) for _ in range(2)]
    termss = [terms_of(v, m) for v in vecs]
    got = _poly.taylor_shift_terms(termss, 1, 1, m, length)
    assert got == [ref_sparse_binomial(t, m, length) for t in termss]
    assert [g[:40] for g in got] == [ref_linear_shift(v, 1, 1, m, 40) for v in vecs]


@pytest.mark.parametrize("length", [60, 252])
def test_taylor_shift_terms_fold_bound_worst_case(length):
    # every nonzero coefficient m - 1 at moduli whose slot of
    # 2 bits(m) + 6 + bits(length) bits is a whole number of bytes, so the
    # walk's rows fold at R = 8k - bits(m) - bits(W) with no rounding to
    # spare: a quarter of the slots (the most the walk takes), a short
    # dense vector beside a long one-term one, and a dense vector beside
    # three long one-term ones, for steps of one and two bits
    for p in (3, 5, 7):
        e, found = 5, 0
        while found < 2:
            e += 1
            if (2 * (p ** e).bit_length() + 6 + length.bit_length()) % 8:
                continue
            found += 1
            m = p ** e
            quarter = [m - 1 if i % 4 == 0 else 0 for i in range(length)]
            top = [0] * (length - 1) + [m - 1]
            short = [m - 1] * ((length - 4) // 3)
            dense = [m - 1] * (length // 2)
            for a, b in ((1, 1), (1, 3), (3, 1), (2, 2)):
                for vecs in ([quarter], [short, top], [dense, top, top, top]):
                    got = _poly.taylor_shift_terms([terms_of(v, m) for v in vecs],
                                                   a, b, m, length)
                    assert got == [ref_linear_shift(v, a, b, m, length)
                                   for v in vecs], (m, a, b, len(vecs))


def first_power_of_bits(p, bits):
    """The least power of p with the given bit length."""
    m = p
    while m.bit_length() < bits:
        m *= p
    assert m.bit_length() == bits
    return m


def ref_slots(x, k, n, m):
    """The lowest n k-byte slots of x mod m, one int.from_bytes a slot."""
    buf = (x & ((1 << 8 * k * n) - 1)).to_bytes(k * n, "little")
    return [int.from_bytes(buf[i:i + k], "little") % m for i in range(0, k * n, k)]


# bits(m) + 3 = 64 (the last modulus whose slots fold below 2^64) and 65
UNPACK_MODULI = [5 ** 10, 3 ** 22, first_power_of_bits(3, 61), first_power_of_bits(3, 62)]


@pytest.fixture(params=["default", "always"])
def gather(request, monkeypatch):
    """The unpack as set, or gathering at every length and fold count
    where the slots fold below 2^64."""
    if request.param == "always":
        monkeypatch.setattr(_poly, "GATHER_MIN", 0)
        monkeypatch.setattr(_poly, "GATHER_FOLDS", 64)
    return request.param


@pytest.mark.parametrize("m", UNPACK_MODULI)
def test_slots_mod_matches_per_slot_read(m, gather):
    # slot widths on both sides of 8 bytes, worst-case (all ones) and random
    # slots, and an int with more slots than are read
    rng = random.Random(m % 1000)
    for k in (1, 3, 7, 8, 9, 11, 16, 17, 24):
        for n in (0, 1, 2, 3, 32, 33, 64, 129):
            for x in (int.from_bytes(b"\xff" * (k * n), "little"),
                      rng.getrandbits(8 * k * n + 8 * k)):
                assert _poly._slots_mod(x, k, n, m) == ref_slots(x, k, n, m), (k, n)


@pytest.mark.parametrize("m", UNPACK_MODULI)
def test_unpack_in_products_and_shifts(m, gather):
    # the unpack of vec_mul, of both trees and of the held division against
    # the schoolbook product, the Horner shift and the schoolbook division:
    # lengths 1 and 2, odd and even ones on the one-point tree and past
    # TWO_POINT_MIN on the two-point tree, at slots of 8 bytes or fewer
    # (m = 5^10, short vectors) and wider
    rng = random.Random(m % 997)
    c = pow(1 + 3, -1, m) if m % 2 else 3
    for length in (1, 2, 33, 64, _poly.TWO_POINT_MIN + 1, _poly.TWO_POINT_MIN + 2):
        xs = [rng.randrange(m) for _ in range(length)]
        ys = [m - 1] * length
        assert _poly.vec_mul(xs, ys, m, 2 * length) == ref_vec_mul(xs, ys, m, 2 * length)
        assert _poly.vec_mul(xs, xs, m, length) == ref_vec_mul(xs, xs, m, length)
        for a, b in ((1, 1), (c - 1, c)):
            for n in (length, length // 2 + 1):
                vecs = [xs, ys[:length // 2 + 1]]
                got = _poly.taylor_shift_terms([terms_of(v, m) for v in vecs], a, b, m, n)
                assert got == [ref_linear_shift(v, a, b, m, n) for v in vecs], (length, a, n)
    # divisors of degree 0, 1 and 30 with a unit top m - 1, held for
    # quotients of 33 coefficients (65 extends the reciprocal)
    for dg in (0, 1, 30):
        g = [rng.randrange(m) for _ in range(dg)] + [m - 1]
        held = _poly.HeldDivisor(g, m, 33)
        for dq in (1, 2, 33, 65):
            for f in ([rng.randrange(m) for _ in range(dg + dq)], [m - 1] * (dg + dq)):
                q, r = ref_poly_divmod_top(f, g, m, None, None)
                r += [0] * (dg - len(r))
                assert _poly.divmod_held(f, held, m) == (q, r), (dg, dq)
                assert _poly.divmod_held(f, held, m, quotient=False) == (q[:dg], r)


# -- the callers ---------------------------------------------------------------------


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


def test_cli_import_does_not_load_sympy():
    """sympy is a test oracle only: importing the CLI must not load it."""
    src = str(pathlib.Path(padiclog.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import padiclog.cli, sys; assert 'sympy' not in sys.modules"],
                   env=env, check=True, timeout=60)


def test_cli_import_does_not_load_dataclasses():
    """Importing the CLI loads neither dataclasses nor the inspect, ast and
    dis modules it brings, about 0.8 MB resident in every process."""
    src = str(pathlib.Path(padiclog.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import padiclog.cli, sys; "
                    "assert not {'dataclasses', 'inspect'} & set(sys.modules)"],
                   env=env, check=True, timeout=60)


# ALWAYS is what every run loads.  COMMAND_CHAINS maps a command to its
# arguments, its input file (or None) and the modules it loads beyond ALWAYS:
# the command's module and the modules that one imports.
ALWAYS = {"padiclog", "padiclog.cli", "padiclog.padic", "padiclog._poly"}
IWADIST_CHAIN = {"padiclog.iwadist", "padiclog.linsolve"}
LOGMAT_CHAIN = IWADIST_CHAIN | {"padiclog.logmat"}
_ZERO = {"coeffs": ["0"], "prec": 10, "deg_cap": 4, "denom_exp": 0, "growth": "0"}
COMMAND_CHAINS = {
    "logmatrix": (["--p", "3", "--k", "0", "--level", "1"], None, LOGMAT_CHAIN),
    "halflog": (["--p", "3", "--sign", "plus", "--level", "1"], None,
                IWADIST_CHAIN),
    "theta": (["--disc", "-4", "--power", "4", "--nmax", "10"], None,
              {"padiclog.qexp"}),
    "galimg": ([], {"p": 5, "gens": [[[1, 1], [0, 1]]]},
               {"padiclog.galimg", "padiclog.linsolve"}),
    "regdiv": ([], {"p": 5, "prec": 10, "points": [5, 10],
                    "F": {"nvars": 2, "deg_cap": 4, "coeffs": {"0,0": "1", "1,0": "1"}},
                    "G": {"nvars": 2, "deg_cap": 4, "coeffs": {"0,0": "1"}}},
               IWADIST_CHAIN | {"padiclog.regdiv"}),
    "split": ([], {"p": 3, "prec": 10, "k": 0, "level": 2, "denom_exp": 0,
                   "alpha": _ZERO, "beta": _ZERO},
              LOGMAT_CHAIN | {"padiclog.split"}),
    "check": (["--suite", "cyclotomic-identities"], None,
              IWADIST_CHAIN | {"padiclog.checks"}),
}


def _loaded_by(code, *argv):
    """The padiclog modules loaded, and what was printed, by code run in a
    fresh process on the package from this checkout."""
    src = str(pathlib.Path(padiclog.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    prog = (code + "\nimport json, sys\n"
            "print(json.dumps(sorted(n for n in sys.modules"
            " if n.split('.')[0] == 'padiclog')))")
    done = subprocess.run([sys.executable, "-c", prog, *argv], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    *printed, last = done.stdout.splitlines()
    return set(json.loads(last)), printed


def test_cli_import_loads_only_padic():
    """Importing the CLI compiles no module a command may not need."""
    assert _loaded_by("import padiclog.cli")[0] == ALWAYS


@pytest.mark.parametrize("cmd", sorted(COMMAND_CHAINS))
def test_command_loads_only_its_chain(cmd, tmp_path):
    args, spec, chain = COMMAND_CHAINS[cmd]
    if spec is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        args = [str(path)]
    code = ("import sys, padiclog.cli\n"
            "code = padiclog.cli.main(sys.argv[1:] + ['--out', %r])\n"
            "print(code)" % str(tmp_path / "out.json"))
    loaded, printed = _loaded_by(code, cmd, *args)
    assert printed == ["0"]
    assert loaded == ALWAYS | chain


def test_package_exports_resolve_lazily():
    """Every name of padiclog.__all__ is its home module's object, and
    `dir(padiclog)` lists them before any has been loaded."""
    loaded, printed = _loaded_by(
        "import padiclog\nprint(set(padiclog.__all__) <= set(dir(padiclog)))")
    assert loaded == {"padiclog"} and printed == ["True"]
    for name in padiclog.__all__:
        ns = {}
        exec("from padiclog import %s as obj" % name, ns)
        home = importlib.import_module(ns["obj"].__module__)
        assert home.__name__.startswith("padiclog.")
        assert getattr(home, name) is ns["obj"]
    with pytest.raises(AttributeError):
        padiclog.no_such_name
    with pytest.raises(ImportError):
        exec("from padiclog import no_such_name", {})


def test_cli_suite_names_are_the_check_suites():
    from padiclog import checks, cli
    assert cli.SUITE_NAMES == tuple(sorted(checks.SUITES))


# Exit code, stdout and stderr of `python -m padiclog.cli ARGS` at 80 columns
# under Python 3.10-3.11, recorded when cli imported every module before it
# parsed its arguments.
_SUITE_USAGE = (
    "usage: padiclog check [-h] --suite\n"
    "                      {antisym,cyclotomic-identities,det-identity,galimg,"
    "halflog-product,logmatrix-structure,mellin-roundtrip,regdiv,signed-split,"
    "theta}\n"
    "                      [--seed SEED] [--out OUT]\n")
PARSER_BYTES = {
    ("check", "--suite", "nope"): (2, "", _SUITE_USAGE + (
        "padiclog check: error: argument --suite: invalid choice: 'nope' "
        "(choose from 'antisym', 'cyclotomic-identities', 'det-identity', "
        "'galimg', 'halflog-product', 'logmatrix-structure', "
        "'mellin-roundtrip', 'regdiv', 'signed-split', 'theta')\n")),
    ("check", "--help"): (0, _SUITE_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --suite {antisym,cyclotomic-identities,det-identity,galimg,"
        "halflog-product,logmatrix-structure,mellin-roundtrip,regdiv,"
        "signed-split,theta}\n"
        "  --seed SEED\n"
        "  --out OUT             write the report here\n"), ""),
    ("logmatrix",): (2, "", (
        "usage: padiclog logmatrix [-h] --p P --k K --level LEVEL [--prec PREC]\n"
        "                          [--eps EPS] [--qinv] [--out OUT]\n"
        "padiclog logmatrix: error: the following arguments are required: "
        "--p, --k, --level\n")),
}


@pytest.mark.parametrize("argv", sorted(PARSER_BYTES))
def test_parser_output_is_unchanged(argv):
    src = str(pathlib.Path(padiclog.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "padiclog.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == PARSER_BYTES[argv]


def test_no_sympy_import_in_package():
    """No import of sympy anywhere in the package, function bodies included."""
    found = []
    for path in sorted(pathlib.Path(padiclog.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_regdiv_imports_no_padic_elt():
    """regdiv runs on ints mod p^prec: it imports no PadicElt."""
    path = pathlib.Path(padiclog.__file__).parent / "regdiv.py"
    names = [alias.name for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert names and "PadicElt" not in names


def test_split_keeps_no_copy_of_series_arithmetic():
    """split divides and combines series through the IwaSeries API: it
    neither builds series from raw vectors (IwaSeries._reduced) nor divides
    vectors itself (_poly.poly_divmod_top)."""
    path = pathlib.Path(padiclog.__file__).parent / "split.py"
    tree = ast.parse(path.read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "solve_series_div" in used
    assert not {"_reduced", "poly_divmod_top"} & used
