"""Division by a held divisor (`_poly.HeldDivisor`, `_poly.divmod_held`).

Seeded differential tests against a schoolbook long division written here,
which calls nothing in `_poly`.  They cover p in {3, 5, 7}, quotients
shorter than, as long as and longer than the held reciprocal, a request
modulus below the divisor's, and dividends with entries that are not
reduced or that vanish only mod the request modulus.
"""

import random

import pytest

from padiclog import _poly


def school_divmod(f, g, m):
    """(q, r) with f = q g + r mod m, len(q) = len(f) - deg g and
    len(r) = deg g, by long division from the top; g[-1] is a unit mod m."""
    dg = len(g) - 1
    linv = pow(g[-1], -1, m)
    r = [c % m for c in f]
    q = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = r[i] * linv % m
        q[i - dg] = c
        for j in range(dg + 1):
            r[i - dg + j] = (r[i - dg + j] - c * g[j]) % m
    return q, r[:dg]


def school_inverse(g, m, n):
    """1/g mod (m, X^n) for g[0] a unit, one coefficient at a time."""
    inv0 = pow(g[0], -1, m)
    out = []
    for i in range(n):
        acc = (1 if i == 0 else 0) - sum(g[j] * out[i - j]
                                         for j in range(1, min(i, len(g) - 1) + 1))
        out.append(acc * inv0 % m)
    return out


def divisor(rng, p, mod, deg):
    """deg + 1 coefficients below mod with a unit top coefficient."""
    g = [rng.randrange(mod) for _ in range(deg)]
    top = rng.randrange(1, mod)
    while top % p == 0:
        top = rng.randrange(1, mod)
    return g + [top]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_divmod_held_matches_schoolbook(p):
    rng = random.Random(1600 + p)
    for gprec, mprec in [(6, 6), (9, 4), (12, 1)]:
        mod, m = p ** gprec, p ** mprec
        for deg in (0, 1, 2, 7, 30):
            length = rng.choice([1, 5, 2 * (deg + 1)])
            g = divisor(rng, p, mod, deg)
            held = _poly.HeldDivisor(g, mod, length, bound=p ** 12)
            assert held.g == g
            assert held.reciprocal() == school_inverse(g[::-1], mod, length)
            # quotients shorter than, as long as and longer than the reciprocal
            for dq in (1, max(1, length - 1), length, length + 1, 3 * length + 7):
                f = [rng.randrange(p ** 12) for _ in range(deg + dq)]
                q, r = _poly.divmod_held(f, held, m)
                assert (q, r) == school_divmod(f, g, m), (gprec, mprec, deg, dq)
                q_low, r_low = _poly.divmod_held(f, held, m, quotient=False)
                assert r_low == r
                assert q_low == q[:deg]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_divmod_held_top_zeros_and_exact_quotients(p):
    rng = random.Random(1610 + p)
    mod, m = p ** 8, p ** 5
    g = divisor(rng, p, mod, 11)
    held = _poly.HeldDivisor(g, mod, 24)
    for dq in (3, 24, 40):
        want = [rng.randrange(m) for _ in range(dq)]
        f = [sum(want[i] * g[k - i] for i in range(len(want)) if 0 <= k - i < len(g))
             % mod for k in range(len(want) + len(g) - 1)]
        q, r = _poly.divmod_held(f, held, m)
        assert q == want and not any(r)
        # entries that vanish only mod m on top: the quotient ends in zeros
        padded = f + [m, 2 * m, 0]
        q, r = _poly.divmod_held(padded, held, m)
        assert q == want + [0, 0, 0] and not any(r)


def test_held_divisor_without_unit_top_has_no_reciprocal():
    for g in ([], [0, 0], [1, 3], [2, 9 * 5]):
        held = _poly.HeldDivisor(g, 3 ** 6, 8)
        assert held.reciprocal() is None and held.gpack is None
    assert _poly.HeldDivisor([3, 1, 0, 729], 3 ** 6, 8).g == [3, 1]


def test_series_inverse_extends_a_given_prefix():
    rng = random.Random(1620)
    for p, prec in [(3, 10), (5, 6), (7, 4)]:
        mod = p ** prec
        g = [1 + p * rng.randrange(mod)] + [rng.randrange(mod) for _ in range(40)]
        want = school_inverse(g, mod, 90)
        for k in (1, 3, 16, 50, 90, 120):
            start = school_inverse(g, p ** (prec + 2), k)
            kept = list(start)
            assert _poly.series_inverse(g, mod, 90, start) == want
            assert start == kept
