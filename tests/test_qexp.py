import random
from math import gcd

import pytest

from padiclog._poly import jacobi
from padiclog.qexp import (
    BadPrime, ImagQuadCtx, QuadOrder, UnitInconsistent,
    deplete, dirichlet_from_euler, eisenstein_depleted,
    nebentype_value, theta_series,
)


def brute_force_theta_gauss(t, n_max):
    """Direct enumeration oracle for D = -4: sum over Z[i] up to units."""
    seen = {}
    bound = int(n_max ** 0.5) + 1
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = a * a + b * b
            if not 1 <= n <= n_max:
                continue
            # canonical associate of a+bi under {1,-1,i,-i}
            assoc = [(a, b), (-a, -b), (-b, a), (b, -a)]
            key = min(assoc)
            seen.setdefault(key, n)
    out = [0] * n_max
    for (a, b), n in seen.items():
        # (a+bi)^t via complex integer arithmetic
        x, y = 1, 0
        for _ in range(t):
            x, y = x * a - y * b, x * b + y * a
        assert y == 0 or any(True for _ in [0])
        out[n - 1] += x
        if y != 0:
            out[n - 1] += 0  # imaginary parts cancel across the layer
    return out


def test_theta_gauss_examples():
    ctx = ImagQuadCtx(-4, 4)
    th = theta_series(ctx, 60)
    assert th.coeff(1) == 1
    assert th.coeff(2) == -4          # (1+i)^4
    assert th.coeff(3) == 0           # 3 inert
    assert th.coeff(5) == -14         # (2+i)^4 + (2-i)^4
    assert th.coeff(7) == 0           # 7 inert in Q(i)


def test_theta_matches_enumeration_oracle():
    ctx = ImagQuadCtx(-4, 4)
    th = theta_series(ctx, 200)
    oracle = brute_force_theta_gauss(4, 200)
    assert th.coeffs == oracle


def test_theta_inert_vanishing():
    ctx = ImagQuadCtx(-4, 4)
    th = theta_series(ctx, 200)
    for p in (3, 7, 11, 19, 23):
        assert jacobi(-4, p) == -1
        assert th.coeff(p) == 0


def test_theta_multiplicativity():
    ctx = ImagQuadCtx(-4, 4)
    th = theta_series(ctx, 200)
    rng = random.Random(60)
    pairs = [(m, n) for m in range(2, 30) for n in range(2, 50)
             if gcd(m, n) == 1 and m * n <= 200]
    for m, n in rng.sample(pairs, 60):
        assert th.coeff(m * n) == th.coeff(m) * th.coeff(n)


def test_theta_other_discriminants():
    # D = -3 requires 6 | t; D = -7 requires t even
    th3 = theta_series(ImagQuadCtx(-3, 6), 30)
    assert th3.coeff(1) == 1
    assert th3.coeff(2) == 0  # 2 inert in Q(sqrt(-3))
    th7 = theta_series(ImagQuadCtx(-7, 2), 30)
    assert th7.coeff(1) == 1
    assert th7.coeff(5) == 0  # 5 inert in Q(sqrt(-7))
    # 2 splits: a_2 = w^2 + (1-w)^2 with w = (1+sqrt(-7))/2
    order = QuadOrder(-7)
    w2 = order.power((0, 1), 2)
    cw2 = order.power(order.conj((0, 1)), 2)
    assert th7.coeff(2) == w2[0] + cw2[0] and w2[1] + cw2[1] == 0


def test_unit_consistency():
    with pytest.raises(UnitInconsistent):
        ImagQuadCtx(-4, 3)
    with pytest.raises(UnitInconsistent):
        ImagQuadCtx(-3, 4)
    with pytest.raises(UnitInconsistent):
        ImagQuadCtx(-7, 1)
    # odd t on D = -7 becomes consistent with an odd character at a split
    # prime 11 = 3 mod 4: chi(a + bw) = legendre(a + 7b), w = 7 mod one
    # prime above 11 (7^2 - 7 + 2 = 0 mod 11)
    def chi_mod11(res):
        r = (res[0] + 7 * res[1]) % 11
        return pow(r, 5, 11) if pow(r, 5, 11) == 1 else -1
    ctx = ImagQuadCtx(-7, 1, cond=11, chi=chi_mod11)
    th = theta_series(ctx, 40)
    # coefficients land in the quadratic order for this twisted character
    assert th.ring == "quad:-7"
    assert th.coeff(11) == (0, 0)  # conductor support drops out
    assert th.coeff(1) == (1, 0)


def test_deplete():
    ones = theta_series(ImagQuadCtx(-4, 4), 30)
    from padiclog.qexp import QExpansion
    allones = QExpansion("int", 12, [1] * 12)
    d = deplete(allones, 3)
    assert d.coeffs == [1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0]
    assert deplete(d, 3).coeffs == d.coeffs
    # depleting theta at an inert prime changes nothing below p^2
    p = 7
    th = theta_series(ImagQuadCtx(-4, 4), p * p - 1)
    assert deplete(th, p).coeffs == th.coeffs


def sympy_zeta_sum(counts, m_root):
    """sum_e counts[e] x^e mod Phi_M by sympy, as an int vector of length phi(M)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    num = sum(c * x ** e for e, c in counts.items())
    rem = sympy.rem(num, sympy.cyclotomic_poly(m_root, x), x)
    vec = sympy.Poly(rem, x).all_coeffs()[::-1] if rem != 0 else []
    deg = int(sympy.totient(m_root))
    return tuple(int(c) for c in vec) + (0,) * (deg - len(vec))


def test_eisenstein_basic():
    e = eisenstein_depleted(3, 8, 1, 5, 20)
    # a_1 = zeta + (-1)^k zeta^(-1)
    assert tuple(e.coeff(1)) == sympy_zeta_sum({1: 1, 7: -1}, 8)
    # p-depletion zeroes multiples of 5
    assert tuple(e.coeff(5)) == (0,) * 4
    assert tuple(e.coeff(10)) == (0,) * 4


def test_eisenstein_odd_weight_real_root():
    # k odd and zeta = -1: zeta^d - zeta^(-d) = 0 identically
    e = eisenstein_depleted(3, 2, 1, 7, 15)
    assert all(tuple(c) == (0,) for c in e.coeffs)


def test_eisenstein_prime_coefficient_oracle():
    # a_l = (zeta-part at d=1) + l^(k-1) (zeta-part at d=l)
    for k, M, zi, p in ((4, 5, 2, 7), (3, 12, 5, 5), (2, 105, 11, 3),
                        (5, 1, 1, 2)):
        e = eisenstein_depleted(k, M, zi, p, 12)
        for ell in (2, 3, 11):
            if ell % p == 0:
                continue
            counts = {}
            for d in (1, ell):
                for ex, sg in ((d * zi, 1), (-d * zi, (-1) ** k)):
                    counts[ex % M] = counts.get(ex % M, 0) + sg * d ** (k - 1)
            assert tuple(e.coeff(ell)) == sympy_zeta_sum(counts, M), (k, M, ell)


def test_eisenstein_matches_the_divisor_sum_over_every_d():
    # the divisor pairs d, n/d with d <= sqrt(n) against every d <= n, with
    # squares n = d^2 among the coefficients
    for k, M, zi, p, n_max in ((2, 8, 1, 5, 50), (3, 12, 5, 7, 50),
                               (4, 1, 1, 2, 50), (3, 105, 2, 11, 16)):
        e = eisenstein_depleted(k, M, zi, p, n_max)
        for n in range(1, n_max + 1):
            counts = {}
            if n % p:
                for d in range(1, n + 1):
                    if n % d == 0:
                        for ex, sg in ((d * zi, 1), (-d * zi, (-1) ** k)):
                            counts[ex % M] = (counts.get(ex % M, 0)
                                              + sg * d ** (k - 1))
            assert tuple(e.coeff(n)) == sympy_zeta_sum(counts, M), (k, M, n)


def test_eisenstein_memory_is_linear_in_the_root_order():
    # a reduction table for x^e mod Phi_M, e < M, holds M * phi(M) ints
    # (about 19 MB at M = 3000); the counts and one remainder need O(M)
    import tracemalloc
    tracemalloc.start()
    try:
        eisenstein_depleted(2, 3000, 1, 5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_dirichlet_from_euler_zeta():
    from sympy import primerange
    factors = {ell: [1, -1] for ell in primerange(2, 60)}
    assert dirichlet_from_euler(factors, 50) == [1] * 50


def test_dirichlet_from_euler_double_pole():
    out = dirichlet_from_euler({2: [1, -2, 1]}, 32)
    # (1 - 2^-s)^-2 at 2^m gives m+1... in terms of the coefficient ring here:
    # inverting [1, -2, 1] gives t_{2^m} = m + 1 scaled by 2^m? no: plain
    # polynomial in l^-s with integer coefficients: t_{2^m} = m+1 when the
    # factor is (1 - T)^2 with T = 2^-s
    out2 = dirichlet_from_euler({2: [1, -2, 1]}, 32)
    for m, n in ((1, 2), (2, 4), (3, 8), (4, 16), (5, 32)):
        assert out2[n - 1] == m + 1


def test_dirichlet_cross_check_theta():
    # split-prime local factors reproduce the theta coefficients
    ctx = ImagQuadCtx(-4, 4)
    th = theta_series(ctx, 50)
    from sympy import primerange
    factors = {}
    for ell in primerange(3, 51):
        eps = jacobi(-4, ell)
        factors[ell] = [1, -th.coeff(ell), eps * ell ** 4]
    t = dirichlet_from_euler(factors, 50)
    for n in range(1, 51):
        if n % 2 == 0:
            continue
        assert t[n - 1] == th.coeff(n), n


def test_nebentype():
    ctx = ImagQuadCtx(-4, 4)
    assert nebentype_value(ctx, 5) == 1
    assert nebentype_value(ctx, 3) == -1
    assert nebentype_value(ctx, 7) == -1
    with pytest.raises(BadPrime):
        nebentype_value(ctx, 2)
    # Hecke relation a_(l^2) = a_l^2 - eps(l) l^t a_1 at split and inert l
    th = theta_series(ctx, 170)
    for ell in (3, 5, 7, 13):
        eps = nebentype_value(ctx, ell)
        assert th.coeff(ell ** 2) == th.coeff(ell) ** 2 - eps * ell ** 4


def _associate_classes(mul, units, norm, n_max):
    """Norm -> number of classes of nonzero elements under unit multiples."""
    bound = 2 * int(n_max ** 0.5) + 2
    classes = {}
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = norm(a, b)
            if 1 <= n <= n_max:
                classes.setdefault(n, set()).add(
                    frozenset(mul(u, (a, b)) for u in units))
    return [len(classes.get(n, ())) for n in range(1, n_max + 1)]


def test_ideal_counts_match_associate_classes():
    # t = 0 makes psi = 1, so theta counts the ideals of each norm
    def gauss_mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def eisenstein_mul(x, y):  # w = (1 + sqrt(-3)) / 2, w^2 = w - 1
        return (x[0] * y[0] - x[1] * y[1],
                x[0] * y[1] + x[1] * y[0] + x[1] * y[1])

    gauss_units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    eisenstein_units = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)]
    want4 = _associate_classes(gauss_mul, gauss_units,
                               lambda a, b: a * a + b * b, 120)
    want3 = _associate_classes(eisenstein_mul, eisenstein_units,
                               lambda a, b: a * a + a * b + b * b, 120)
    assert theta_series(ImagQuadCtx(-4, 0), 120).coeffs == want4
    assert theta_series(ImagQuadCtx(-3, 0), 120).coeffs == want3
    # Z[i]: one ideal of norm 2, two of norm 5, none of norm 3
    assert (want4[1], want4[4], want4[2]) == (1, 2, 0)
