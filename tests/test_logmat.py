import random
from fractions import Fraction

import pytest

from padiclog import _poly
from padiclog.cycser import NotInImage, frobenius
from padiclog.iwadist import (
    CharPoint, IwaSeries, NoUnitWitness, delta, equal_up_to_unit_mod, eval_at,
    halflog, is_unit, log_tw, omega_tw, poly_reduce,
)
from padiclog.logmat import (
    AP_ZERO, CrystalParams, DegenerateEigenvalues, LogMatrix, ScaledConstMatrix,
    WrongMode, combined, const_matrix, groupring_to_iwa, log_matrix_ap0,
    log_matrix_from_wach, p_prime_ap0, q_fg_block, q_fg_inv_block, q_matrix,
    q_matrix_inv, qinv_times, semi_ordinary_block, wach_matrices_ap0,
    window_ideal,
)
from padiclog.padic import PadicElt, PadicError, PrimeCtx, val


def one_plus_pi_pow(ctx, e, cap):
    """(1+pi)^e truncated at cap, at the context precision."""
    return IwaSeries(ctx, _poly.onepx_pow(e, cap, ctx.p, ctx.prec), None,
                     ctx.prec, cap)


def params_ap0(p=3, prec=10, k=0, eps=1):
    return CrystalParams.ap_zero(p, prec, k, eps)


def test_ap0_params_eigenvalues():
    for (p, k, eps) in ((3, 0, 1), (3, 1, 1), (5, 0, 2), (5, 1, 1), (3, 2, 1)):
        pr = params_ap0(p, 10, k, eps)
        assert pr.alpha * pr.alpha == -eps * p ** (k + 1)
        assert val(pr.alpha) == Fraction(k + 1, 2)


def test_q_matrix_ap0_shape():
    # in a_p = 0 mode Q_g = (1/2) [[1, 1], [alpha, -alpha]]
    pr = params_ap0(3, 10, 0)
    q = q_matrix(pr, "g")
    two_inv = pr.ctx.from_int(2).inv()
    assert q.entry(0, 0) == two_inv
    assert q.entry(0, 1) == two_inv
    assert q.entry(1, 0) == pr.alpha * two_inv
    assert q.entry(1, 1) == -pr.alpha * two_inv


def test_q_matrix_diagonalizes_frobenius():
    # Q_g^-1 A_g Q_g = diag(1/alpha, 1/beta), checked after clearing p-powers
    pr = params_ap0(3, 12, 1)
    ctx = pr.ctx
    k = pr.k
    q = q_matrix(pr, "g")
    qi = q_matrix_inv(pr, "g")
    # A_g = [[0, -1/(eps p^(k+1))], [1, 0]] as p^-(k+1) * integral
    einv = pr.eps.inv()
    a_scaled = const_matrix(ctx, [[ctx.zero(), -einv],
                                  [ctx.from_int(ctx.p ** (k + 1)), ctx.zero()]])
    a = a_scaled.map(lambda s: s.times_p(-(k + 1)))
    prod = (qi @ a) @ q
    ainv, e_a = __import__("padiclog.padic", fromlist=["inv_scaled"]).inv_scaled(pr.alpha)
    binv, e_b = __import__("padiclog.padic", fromlist=["inv_scaled"]).inv_scaled(pr.beta)
    assert prod.entry(0, 0) == IwaSeries.const(ctx, ainv, 1).times_p(-e_a)
    assert prod.entry(1, 1) == IwaSeries.const(ctx, binv, 1).times_p(-e_b)
    assert prod.entry(0, 1).normalize().is_zero()
    assert prod.entry(1, 0).normalize().is_zero()


def test_q_matrix_det():
    pr = params_ap0(3, 10, 0)
    d = q_matrix(pr, "g").det()
    # det Q_g = alpha beta / (alpha - beta) = -alpha/2 here
    lhs = d.coeff(0)
    expect = -pr.alpha * pr.ctx.from_int(2).inv()
    assert d.denom_exp == 0 and lhs == expect


def test_q_matrix_degenerate():
    ctx = PrimeCtx(5, 8)
    pr = CrystalParams.__new__(CrystalParams)
    pr.ctx, pr.k, pr.eps = ctx, 0, ctx.one()
    pr.alpha = ctx.from_int(5)
    pr.beta = ctx.from_int(5)
    pr.mode = "FL-supplied"
    with pytest.raises(DegenerateEigenvalues):
        q_matrix(pr, "g")


def test_wach_matrices_ap0():
    pr = params_ap0(3, 10, 1)
    ctx = pr.ctx
    aprime, pinv = wach_matrices_ap0(pr, 30)
    # P'_g * P'_g^(-1) = identity over the pi-series truncation
    pnum, qk = p_prime_ap0(pr, 30)
    prod = [[None] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            prod[i][j] = pnum[i][0] * pinv[0][j] + pnum[i][1] * pinv[1][j]
    # q^(k+1) * P' * P'^(-1) should equal q^(k+1) * 1
    assert prod[0][0] == qk and prod[1][1] == qk
    assert prod[0][1].is_zero() and prod[1][0].is_zero()
    # A' = P' mod pi: compare p^(k+1)-scaled numerators at pi = 0
    assert aprime.num[0][1] * (-1) == pr.eps.inv()
    assert pnum[0][1].coeff(0) * ctx.from_int(3 ** 2) == aprime.num[0][1] * qk.coeff(0)
    # det A' = -1/(eps p^(k+1)): scaled determinant has the p-power split off
    d, e = aprime.det_scaled()
    assert e == 2 * (pr.k + 1)
    assert d == pr.eps.inv() * ctx.from_int(3 ** (pr.k + 1))


def test_wach_matrices_wrong_mode():
    ctx = PrimeCtx(5, 8)
    pr = CrystalParams(ctx, 0, ctx.one(), ctx.from_int(2),
                       ctx.from_int(pow(2, -1, 5 ** 8) * 5 % 5 ** 8), "FL-supplied")
    with pytest.raises(WrongMode):
        wach_matrices_ap0(pr, 10)


def test_log_matrix_antidiagonal():
    # the product of an odd number of antidiagonal factors stays antidiagonal
    for (k, n) in ((0, 1), (0, 2), (1, 1)):
        pr = params_ap0(3, 8, k)
        m = log_matrix_ap0(pr, n)
        assert m.entry(0, 0).is_zero()
        assert m.entry(1, 1).is_zero()
        assert not m.entry(0, 1).is_zero()
        assert not m.entry(1, 0).is_zero()


def test_log_matrix_halflog_shape():
    # (2,1)-entry: unit times the minus half-log; (1,2): unit times plus/p^(k+1),
    # modulo the congruence ideal together with the representation window
    for (k, n, floor) in ((0, 2, 8), (0, 3, 8), (1, 2, 6)):
        pr = params_ap0(3, 8, k)
        m = log_matrix_ap0(pr, n)
        cap = m.entry(1, 0).deg_cap
        win = window_ideal(m)
        hm = halflog(pr.ctx, "-", k + 1, n, cap).normalize()
        hp = halflog(pr.ctx, "+", k + 1, n, cap)
        hp = IwaSeries(pr.ctx, hp.a, None, hp.prec, hp.deg_cap,
                       hp.denom_exp + k + 1, hp.growth).normalize()
        e21 = m.entry(1, 0).normalize()
        e12 = m.entry(0, 1).normalize()
        assert e21.denom_exp == hm.denom_exp
        assert e12.denom_exp == hp.denom_exp
        u1 = equal_up_to_unit_mod(
            IwaSeries(pr.ctx, e21.a, None, min(e21.prec, floor), cap),
            IwaSeries(pr.ctx, hm.a, None, min(hm.prec, floor), cap),
            n - 1, k + 1, extra_ideals=[win])
        assert is_unit(u1)
        u2 = equal_up_to_unit_mod(
            IwaSeries(pr.ctx, e12.a, None, min(e12.prec, floor), cap),
            IwaSeries(pr.ctx, hp.a, None, min(hp.prec, floor), cap),
            n - 1, k + 1, extra_ideals=[win])
        assert is_unit(u2)


def test_log_matrix_vanishing_parity():
    pr = params_ap0(3, 8, 0)
    m = log_matrix_ap0(pr, 3)
    e21, e12 = m.entry(1, 0), m.entry(0, 1)
    # minus-type entry vanishes at odd-order points, plus-type at even order
    assert eval_at(e21, CharPoint(1, 0)).is_zero()
    assert eval_at(e21, CharPoint(3, 0)).is_zero()
    assert not eval_at(e21, CharPoint(2, 0)).is_zero()
    assert eval_at(e12, CharPoint(2, 0)).is_zero()
    assert not eval_at(e12, CharPoint(1, 0)).is_zero()


def test_log_matrix_level_coherence():
    for (k, n, vfloor) in ((0, 1, 0), (0, 2, 0), (1, 1, -2)):
        pr = params_ap0(3, 8, k)
        m1 = log_matrix_ap0(pr, n)
        m2 = log_matrix_ap0(pr, n + 1)
        ideal = omega_tw(pr.ctx, n, k + 1, m2.entry(0, 1).deg_cap)
        for (i, j) in ((0, 1), (1, 0)):
            a, b = m1.entry(i, j), m2.entry(i, j)
            d = max(a.denom_exp, b.denom_exp)
            a2, b2 = a.rescale(d - a.denom_exp), b.rescale(d - b.denom_exp)
            diff = IwaSeries(pr.ctx, b2.a, None, b2.prec, b2.deg_cap) - \
                IwaSeries(pr.ctx, a2.a, None, a2.prec, b2.deg_cap)
            r = poly_reduce(diff, ideal)
            mv = r.min_val()
            # residual value valuation: stored valuation minus denominator
            assert mv == float("inf") or mv - d >= vfloor


def test_det_identity():
    # det(M') * p^(k+1) * delta_(k+1) = unit * log_tw(k+1, n) modulo
    # (omega_(n-1,k+1), window)
    for (k, n, floor) in ((0, 2, 8), (0, 3, 8), (1, 2, 6)):
        pr = params_ap0(3, 8, k)
        m = log_matrix_ap0(pr, n)
        det = (-(m.entry(0, 1) * m.entry(1, 0)))
        cap = det.deg_cap
        win = window_ideal(m)
        lhs = (det * delta(pr.ctx, k + 1, cap)).times_p(k + 1).normalize()
        rhs = log_tw(pr.ctx, k + 1, n, cap).normalize()
        assert lhs.denom_exp == rhs.denom_exp
        u = equal_up_to_unit_mod(
            IwaSeries(pr.ctx, lhs.a, None, min(lhs.prec, floor), cap),
            IwaSeries(pr.ctx, rhs.a, None, min(rhs.prec, floor), cap),
            n - 1, k + 1, extra_ideals=[win])
        assert is_unit(u)


def test_log_matrix_from_wach_synthetic():
    # a user-supplied Frobenius lift with the same reduction and determinant
    # pattern: P_new^(-1) = phi(U)^(-1) P'^(-1) U for unipotent U
    pr = params_ap0(3, 8, 0)
    k, n = 0, 2
    scale_prec = 8 + (k + 1) * (n + 1 + 1)
    ctxw = PrimeCtx(3, scale_prec)
    cap = 3 ** (n + 2 + 1)
    epsw = PadicElt(ctxw, pr.eps.a, 0)
    from padiclog.cycser import q_series
    q = q_series(ctxw, cap)
    one = IwaSeries.const(ctxw, 1, cap)
    zero = IwaSeries.zero(ctxw, cap)
    pi = IwaSeries.gen(ctxw, cap)
    pinv = [[zero, one], [(-1) * q, zero]]
    phi_pi = frobenius(pi)
    # U = [[1, pi], [0, 1]]
    def umul(mat):
        # phi(U)^(-1) * mat * U
        a, b, c, d = mat[0][0], mat[0][1], mat[1][0], mat[1][1]
        r = [[a - phi_pi * c, b - phi_pi * d], [c, d]]
        return [[r[0][0], r[0][0] * pi + r[0][1]], [r[1][0], r[1][0] * pi + r[1][1]]]
    pinv2 = umul(pinv)
    einv = epsw.inv()
    a_scaled = ScaledConstMatrix(
        [[ctxw.zero(), -einv], [ctxw.from_int(3 ** (k + 1)), ctxw.zero()]], k + 1)
    m1 = log_matrix_from_wach(ctxw, a_scaled, pinv2, 0, n, k, out_ctx=pr.ctx)
    m2 = log_matrix_from_wach(ctxw, a_scaled, pinv2, 0, n + 1, k, out_ctx=pr.ctx)
    ideal = omega_tw(pr.ctx, n, k + 1, m2.entry(0, 1).deg_cap)
    for i in range(2):
        for j in range(2):
            a, b = m1.entry(i, j), m2.entry(i, j)
            d = max(a.denom_exp, b.denom_exp)
            a2, b2 = a.rescale(d - a.denom_exp), b.rescale(d - b.denom_exp)
            diff = IwaSeries(pr.ctx, b2.a, None, b2.prec, b2.deg_cap) - \
                IwaSeries(pr.ctx, a2.a, None, a2.prec, b2.deg_cap)
            r = poly_reduce(diff, ideal)
            assert r.min_val() == float("inf") or r.min_val() - d >= 0


def test_semi_ordinary_block():
    pr = params_ap0(3, 8, 0)
    mg = log_matrix_ap0(pr, 2)
    ctx = pr.ctx
    cap = mg.entry(0, 1).deg_cap
    z = IwaSeries.zero(ctx, cap)
    lower = [[z, z], [z, z]]
    k_f = 1
    blk = semi_ordinary_block(mg, k_f, 1, lower)
    assert blk.dim == 4
    # upper-right block vanishes
    for i in range(2):
        for j in (2, 3):
            assert blk.entry(i, j).is_zero()
    # upper-left equals M'_g when u_f = 1
    for i in range(2):
        for j in range(2):
            assert blk.entry(i, j) == mg.entry(i, j)
    # lower-right = ell * Tw^(k_f+1) M entrywise
    from padiclog.iwadist import divide_exact, twist
    lt = log_tw(ctx, k_f + 1, 2, (k_f + 1) * 9 + 2)
    dl = delta(ctx, k_f + 1, (k_f + 1) * 9 + 2)
    ell = divide_exact(lt, dl)
    for i in range(2):
        for j in range(2):
            assert blk.entry(2 + i, 2 + j) == ell * twist(mg.entry(i, j), k_f + 1)


def test_q_fg_block_and_inverse():
    pr = params_ap0(3, 10, 0)
    ctx = pr.ctx
    # ordinary pair for f: alpha_f unit, beta_f = eps_f p^(k_f+1)/alpha_f
    alpha_f = ctx.from_int(2)
    beta_f = ctx.from_int(pow(2, -1, ctx.modulus) * 3 ** 2)
    qg = q_matrix(pr, "g")
    qfg = q_fg_block(qg, alpha_f, beta_f)
    assert qfg.dim == 4
    qfginv = q_fg_inv_block(pr, alpha_f, beta_f)
    prod = qfginv @ qfg
    for i in range(4):
        for j in range(4):
            e = prod.entry(i, j).normalize()
            if i == j:
                assert e == IwaSeries.const(ctx, 1, e.deg_cap)
            else:
                assert e.is_zero()


def test_combined_block_structure():
    # upper-left of Q_fg^-1 M'_fg is Q_g^-1 M'_g when u_f = 1, upper-right is 0
    pr = params_ap0(3, 8, 0)
    mg = log_matrix_ap0(pr, 2)
    ctx = pr.ctx
    cap = mg.entry(0, 1).deg_cap
    z = IwaSeries.zero(ctx, cap)
    mfg = semi_ordinary_block(mg, 1, 1, [[z, z], [z, z]])
    alpha_f = ctx.from_int(2)
    beta_f = ctx.from_int(pow(2, -1, ctx.modulus) * 3 ** 2)
    qfginv = q_fg_inv_block(pr, alpha_f, beta_f, deg_cap=1)
    got = combined(qfginv, mfg)
    want = qinv_times(pr, mg)
    for i in range(2):
        for j in range(2):
            assert got.entry(i, j) == want.entry(i, j)
        for j in (2, 3):
            assert got.entry(i, j).is_zero()


def test_groupring_roundtrip_constant():
    from padiclog.cycser import FiniteGroupRingElt
    ctx = PrimeCtx(3, 8)
    lam = FiniteGroupRingElt.delta(ctx, 2, 1, c=5)
    s = groupring_to_iwa(lam)
    assert s == IwaSeries.const(ctx, 5, s.deg_cap)
    # a generator with trivial Teichmuller part maps to (1+X)^dlog
    u = 1 + 3
    lam2 = FiniteGroupRingElt.delta(ctx, 2, u)
    s2 = groupring_to_iwa(lam2)
    x = IwaSeries.gen(ctx, s2.deg_cap)
    assert s2 == x + 1


def test_q_matrix_fl_supplied_random():
    # Q_g^-1 A_g Q_g = diag(1/alpha, 1/beta) for a random distinct pair
    import random
    rng = random.Random(60)
    ctx = PrimeCtx(5, 10)
    from padiclog.padic import inv_scaled
    for _ in range(5):
        k = rng.randrange(0, 3)
        alpha = ctx.from_int(rng.randrange(1, 5))        # unit root
        eps = ctx.from_int(1 + 5 * rng.randrange(4))
        beta = eps * ctx.from_int(5 ** (k + 1)) * alpha.inv()
        pr = CrystalParams.fl_supplied(ctx, k, eps, alpha, beta)
        q = q_matrix(pr, "g")
        qi = q_matrix_inv(pr, "g")
        a_scaled = const_matrix(ctx, [[ctx.zero(), -eps.inv()],
                                      [ctx.from_int(5 ** (k + 1)), ctx.zero()]])
        # A_g has trace a_p = alpha + beta here only if a_p = 0; instead use
        # the generic A_g = [[0, -1/(eps p^(k+1))], [1, 0]]-conjugacy class:
        # check the defining identity column-wise via Q columns as eigenvectors
        prod = (qi @ a_scaled.map(lambda s: s.times_p(-(k + 1)))) @ q
        # off-diagonal entries vanish exactly when alpha, beta are the roots
        # of X^2 + 1/(eps p^(k+1)) ... only in ap-zero mode; here assert the
        # change-of-basis determinant formula instead
        d = q.det().normalize()
        abi, e = inv_scaled(alpha - beta)
        expect = (alpha * beta * abi)
        assert d == IwaSeries.const(ctx, expect, 1).times_p(-e).normalize()


def test_column_parity_divisibility():
    # each column of alpha * Q^-1 M', reduced, is divisible by the matching
    # parity product of twisted Phi's (exactly for k = 0)
    from padiclog.split import parity_products
    from padiclog.iwadist import poly_reduce
    for (k, n) in ((0, 2), (0, 3)):
        pr = params_ap0(3, 10, k)
        m = log_matrix_ap0(pr, n)
        qm = qinv_times(pr, m)
        cap = qm.entry(0, 1).deg_cap + 4
        even, odd = parity_products(pr.ctx, n, k + 1, cap)
        for col, prod in ((0, odd), (1, even)):
            for row in range(2):
                ent = (qm.entry(row, col).widen(cap) * pr.alpha).normalize()
                vecs = [ent.a] + ([ent.b] if ent.b else [])
                for vec in vecs:
                    f = IwaSeries(pr.ctx, vec, None, ent.prec, cap)
                    r = poly_reduce(f, prod)
                    assert r.is_zero()


def test_log_matrix_nontrivial_component():
    # the omega-isotypic component has the same antidiagonal half-log shape
    from padiclog.iwadist import CharPoint, eval_at
    pr = params_ap0(3, 10, 0)
    m0 = log_matrix_ap0(pr, 2, theta_index=0)
    m1 = log_matrix_ap0(pr, 2, theta_index=1)
    assert m1.entry(0, 0).is_zero() and m1.entry(1, 1).is_zero()
    for m in (m0, m1):
        assert eval_at(m.entry(1, 0), CharPoint(1, 0)).is_zero()
        assert eval_at(m.entry(0, 1), CharPoint(2, 0)).is_zero()
        assert not eval_at(m.entry(1, 0), CharPoint(2, 0)).is_zero()
    assert m0.entry(1, 0).denom_exp == m1.entry(1, 0).denom_exp
    # the product (1+pi)*phi(...) is supported on exponents = 1 mod p, i.e.
    # on the principal-unit part, so all isotypic components coincide here
    assert m0.entry(1, 0) == m1.entry(1, 0)


def test_det_identity_other_primes():
    # the matrix machinery is not p = 3 specific: same identity at p = 5, 7
    from padiclog.iwadist import delta as _delta, log_tw as _log_tw
    for (p, k, n) in ((5, 1, 1), (5, 2, 1), (5, 1, 2), (7, 0, 1)):
        pr = CrystalParams.ap_zero(p, 12, k)
        m = log_matrix_ap0(pr, n)
        assert m.entry(0, 0).is_zero() and m.entry(1, 1).is_zero()
        det = -(m.entry(0, 1) * m.entry(1, 0))
        cap = det.deg_cap
        lhs = (det * _delta(pr.ctx, k + 1, cap)).times_p(k + 1).normalize()
        rhs = _log_tw(pr.ctx, k + 1, n, cap).normalize()
        assert lhs.denom_exp == rhs.denom_exp
        u = equal_up_to_unit_mod(
            IwaSeries(pr.ctx, lhs.a, None, min(lhs.prec, 8), cap),
            IwaSeries(pr.ctx, rhs.a, None, min(rhs.prec, 8), cap),
            n - 1, k + 1, extra_ideals=[window_ideal(m)])
        assert is_unit(u)


def test_level_coherence_p5():
    from padiclog.iwadist import poly_reduce
    pr = params_ap0(5, 8, 0)
    m1 = log_matrix_ap0(pr, 1)
    m2 = log_matrix_ap0(pr, 2)
    ideal = omega_tw(pr.ctx, 1, 1, m2.entry(0, 1).deg_cap)
    for (i, j) in ((0, 1), (1, 0)):
        a, b = m1.entry(i, j), m2.entry(i, j)
        d = max(a.denom_exp, b.denom_exp)
        a2, b2 = a.rescale(d - a.denom_exp), b.rescale(d - b.denom_exp)
        diff = IwaSeries(pr.ctx, b2.a, None, b2.prec, b2.deg_cap) - \
            IwaSeries(pr.ctx, a2.a, None, a2.prec, b2.deg_cap)
        r = poly_reduce(diff, ideal)
        assert r.min_val() == float("inf")


def test_semi_ordinary_block_nontrivial_unit():
    pr = params_ap0(3, 8, 0)
    mg = log_matrix_ap0(pr, 2)
    ctx = pr.ctx
    cap = mg.entry(0, 1).deg_cap
    z = IwaSeries.zero(ctx, cap)
    u_f = IwaSeries(ctx, [1, 3, 2], None, None, cap)  # a unit series
    ll = IwaSeries(ctx, [7, 1], None, None, cap)
    blk = semi_ordinary_block(mg, 0, u_f, [[ll, z], [z, ll]])
    for i in range(2):
        for j in range(2):
            assert blk.entry(i, j) == u_f * mg.entry(i, j)
    # lower-left stored verbatim
    assert blk.entry(2, 0) == ll and blk.entry(3, 1) == ll


# -- the Wach product against the pi-basis loops --------------------------------
#
# `log_matrix_from_wach` and `log_matrix_ap0` run the product on int vectors
# in Y = 1+pi, mark the zero entries of P^(-1) once and skip every term,
# Mellin read and projection they would feed; the Mellin read and the
# Delta-projection are one pass over the Teichmuller cosets.  The references
# below are the dense pi-basis loop (every entry through every stage), the
# sparse pi-basis loop with one `frobenius` per nonconstant entry and level,
# a `mellin_inverse` per entry and the dict-and-dlog projection with an
# iterated-power Teichmuller split; each must give identical JSON.


def ref_groupring_to_iwa(lam, theta_index=0, out_ctx=None):
    from padiclog import _poly
    from padiclog.padic import teichmuller
    ctx = lam.ctx if out_ctx is None else out_ctx
    p = lam.ctx.p
    lvl = lam.level
    q = p ** (lvl + 1)
    u = 1 + p
    dlog = {}
    x = 1
    for e in range(p ** lvl):
        dlog[x] = e
        x = x * u % q
    m = lam.ctx.p ** lam.prec
    bs = [0] * (p ** lvl)
    for a, c in lam.coeffs.items():
        t = a % q
        while True:
            nt = pow(t, p, q)
            if nt == t:
                break
            t = nt
        e = dlog[a * pow(t, -1, q) % q]
        if theta_index % (p - 1) != 0:
            tv = teichmuller(lam.ctx, a % p).a
            c = c * pow(tv, theta_index, m)
        bs[e] = (bs[e] + c) % m
    coeffs = _poly.from_onepx_basis(bs, m, p ** lvl)
    return IwaSeries(ctx, coeffs, None, lam.prec, p ** lvl)


def dense_log_matrix_from_wach(ctx_work, a_scaled, pinv, pinv_scale, n, k,
                               theta_index=0, out_ctx=None, provenance=""):
    from padiclog.cycser import mellin_inverse

    def mul(A, B):
        return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)]
                for i in range(2)]

    p = ctx_work.p
    rep = n + 1
    cap = p ** (rep + 1)
    scale = a_scaled.p_exp * (n + 1) + pinv_scale * n
    prod = None
    cur = pinv
    for i in range(1, n + 1):
        cur = [[frobenius(e) for e in row] for row in cur]
        prod = cur if prod is None else mul(cur, prod)
    if prod is None:
        prod = [[IwaSeries.const(ctx_work, 1, cap), IwaSeries.zero(ctx_work, cap)],
                [IwaSeries.zero(ctx_work, cap), IwaSeries.const(ctx_work, 1, cap)]]
    an = [[1, 0], [0, 1]]
    araw = [[a_scaled.num[i][j].a for j in range(2)] for i in range(2)]
    m = ctx_work.modulus
    for _ in range(n + 1):
        an = [[(an[i][0] * araw[0][j] + an[i][1] * araw[1][j]) % m
               for j in range(2)] for i in range(2)]
    opp = one_plus_pi_pow(ctx_work, 1, cap)
    out = []
    for i in range(2):
        orow = []
        for j in range(2):
            s = opp * (prod[0][j] * an[i][0] + prod[1][j] * an[i][1])
            lam = mellin_inverse(s, rep)
            e = ref_groupring_to_iwa(lam, theta_index, out_ctx)
            e.denom_exp = scale
            orow.append(e.normalize())
        out.append(orow)
    return LogMatrix(out, level=n, provenance=provenance, rep_level=rep)


def ref_log_matrix_from_wach(ctx_work, a_scaled, pinv, pinv_scale, n, k,
                             theta_index=0, out_ctx=None, provenance=""):
    """The sparse pi-basis loop: zeros as None, phi by `frobenius` on each
    nonconstant entry, truncation at pi^(p^(n+2)) after every product and
    one `mellin_inverse` per nonzero output entry."""
    from padiclog.cycser import mellin_inverse

    def dot(pairs):
        acc = None
        for x, y in pairs:
            if x is not None and y is not None:
                acc = x * y if acc is None else acc + x * y
        return acc

    p = ctx_work.p
    rep = n + 1
    cap = p ** (rep + 1)
    if any(e.deg_cap < cap for row in pinv for e in row):
        raise ValueError("pinv entries need deg_cap >= p^(n+2) = %d" % cap)
    scale = a_scaled.p_exp * (n + 1) + pinv_scale * n
    pinv_prec = [[e.prec for e in row] for row in pinv]
    cur = [[None if e.is_zero() else e for e in row] for row in pinv]
    prod = None
    for _ in range(n):
        cur = [[e if e is None or not (e.b or any(e.a[1:])) else frobenius(e)
                for e in row] for row in cur]
        if prod is None:
            prod, precs = cur, pinv_prec
        else:
            prod = [[dot((cur[i][t], prod[t][j]) for t in range(2))
                     for j in range(2)] for i in range(2)]
            precs = [[min(pinv_prec[i][0], pinv_prec[i][1], precs[0][j],
                          precs[1][j]) for j in range(2)] for i in range(2)]
    if prod is None:
        one = IwaSeries.const(ctx_work, 1, cap)
        prod, precs = [[one, None], [None, one]], [[ctx_work.prec] * 2] * 2
    an = [[1, 0], [0, 1]]
    araw = [[a_scaled.num[i][j].a for j in range(2)] for i in range(2)]
    m = ctx_work.modulus
    for _ in range(n + 1):
        an = [[(an[i][0] * araw[0][j] + an[i][1] * araw[1][j]) % m
               for j in range(2)] for i in range(2)]
    an = [[c or None for c in row] for row in an]
    opp = one_plus_pi_pow(ctx_work, 1, cap)
    zero_ctx = ctx_work if out_ctx is None else out_ctx
    out = []
    for i in range(2):
        orow = []
        for j in range(2):
            s = dot((prod[t][j], an[i][t]) for t in range(2))
            prec = min(ctx_work.prec, precs[0][j], precs[1][j])
            if s is None:
                ent = IwaSeries.zero(zero_ctx, p ** rep, prec)
            else:
                h = opp * s
                if h.prec != prec:
                    h = IwaSeries(ctx_work, h.a, None, prec, cap)
                ent = ref_groupring_to_iwa(mellin_inverse(h, rep), theta_index,
                                           out_ctx)
            ent.denom_exp = scale
            orow.append(ent.normalize())
        out.append(orow)
    return LogMatrix(out, level=n, provenance=provenance, rep_level=rep)


def view(mat):
    """JSON of a matrix, with the context of every entry."""
    return mat.to_json(), [[(e.ctx.prec, e.ctx.ext) for e in row]
                           for row in mat.entries]


def both_json(*args, **kw):
    got = log_matrix_from_wach(*args, **kw)
    want = dense_log_matrix_from_wach(*args, **kw)
    return view(got), view(want)


def outcome(fn, *args, **kw):
    """The view of fn's matrix, or the type and message of what it raised."""
    try:
        return view(fn(*args, **kw))
    except (PadicError, ValueError) as exc:
        return type(exc), str(exc)


AP0_SHAPES = [(p, n) for p in (3, 5, 7) for n in range(4) if p ** (n + 2) <= 4096]


@pytest.mark.parametrize("p,n", AP0_SHAPES)
def test_from_wach_ap0_matches_dense(p, n):
    # the a_p = 0 lifts exactly as log_matrix_ap0 builds them
    prec = 6
    for k in (0, 1, 2):
        for eps in (1, 2):
            pr = params_ap0(p, prec, k, eps)
            wp = prec + (k + 1) * (n + 1)
            ctxw = PrimeCtx(p, wp, pr.ctx.ext)
            a_scaled, pinv = wach_matrices_ap0(pr, p ** (n + 2), wp)
            theta = (k + eps) % 2
            got, want = both_json(ctxw, a_scaled, pinv, 0, n, k, theta,
                                  out_ctx=pr.ctx, provenance="t")
            assert got == want, (p, n, k, eps)


def rand_pi(rng, ctx, cap, shape):
    """A random series in pi of the given shape: zero, constant or polynomial,
    at a random precision <= the context's and a window >= cap."""
    prec = rng.randint(max(1, ctx.prec - 3), ctx.prec)
    wide = cap + rng.choice((0, 0, 1, ctx.p))
    m = ctx.p ** prec
    if shape == "zero":
        return IwaSeries.zero(ctx, wide, prec)
    if shape == "const":
        return IwaSeries.const(ctx, rng.randrange(1, m), wide, prec)
    # "deep": a degree at or near the window, so that products pass it
    deg = rng.randint(wide - 3, wide - 1) if shape == "deep" else rng.randint(1, 6)
    coeffs = [rng.randrange(m) for _ in range(deg)] + [rng.randrange(1, m)]
    return IwaSeries(ctx, coeffs, None, prec, wide)


def rand_wach_case(rng, shapes):
    p = rng.choice((3, 5))
    n = rng.randint(0, 2 if p == 3 else 1)
    ctx = PrimeCtx(p, rng.randint(5, 9))
    cap = p ** (n + 2)
    pinv = [[rand_pi(rng, ctx, cap, shapes[2 * i + j]) for j in range(2)]
            for i in range(2)]
    num = [[ctx.from_int(rng.choice((0, 1, rng.randrange(ctx.modulus))))
            for _ in range(2)] for _ in range(2)]
    a_scaled = ScaledConstMatrix(num, rng.randint(0, 2))
    out_ctx = rng.choice((None, PrimeCtx(p, ctx.prec - 1)))
    return (ctx, a_scaled, pinv, rng.randint(0, 1), n, rng.randint(0, 2),
            rng.randint(0, p - 1), out_ctx)


def test_from_wach_random_dense_matches():
    rng = random.Random(404)
    for _ in range(30):
        args = rand_wach_case(rng, ["poly"] * 4)
        got, want = both_json(*args[:6], theta_index=args[6], out_ctx=args[7])
        assert got == want


def test_from_wach_zero_patterns_match():
    # every zero pattern, with constants and polynomials in the other
    # entries at mixed precisions: a skipped zero factor must still lower
    # the precision of the entries it meets, as in the dense sums
    rng = random.Random(405)
    patterns = [[("zero", "const", "poly")[(mask >> (2 * i)) % 3]
                 for i in range(4)] for mask in range(81)]
    patterns += [["zero", "zero", "poly", "const"],     # an all-zero row
                 ["const", "zero", "zero", "const"],    # constants only
                 ["zero"] * 4]
    for shapes in patterns:
        args = rand_wach_case(rng, shapes)
        got, want = both_json(*args[:6], theta_index=args[6], out_ctx=args[7])
        assert got == want, shapes


def test_from_wach_rejects_narrow_entry():
    pr = params_ap0(3, 6, 0)
    a_scaled, pinv = wach_matrices_ap0(pr, 27)
    pinv[1][0] = IwaSeries.zero(pr.ctx, 9)
    with pytest.raises(ValueError):
        log_matrix_from_wach(pr.ctx, a_scaled, pinv, 0, 1, 0)


def test_groupring_teichmuller_power_matches_loop():
    from padiclog.cycser import FiniteGroupRingElt
    rng = random.Random(406)
    for p in (3, 5, 7):
        ctx = PrimeCtx(p, 8)
        for lvl in range(1, 5):
            if p ** lvl > 2401:
                continue
            q = p ** (lvl + 1)
            for theta in (0, 1, p - 2):
                units = [a for a in rng.sample(range(1, q), min(q - 1, 12))
                         if a % p]
                lam = FiniteGroupRingElt(
                    ctx, lvl, {a: rng.randrange(ctx.modulus) for a in units},
                    rng.randint(3, 8))
                out_ctx = rng.choice((None, PrimeCtx(p, 6)))
                got = groupring_to_iwa(lam, theta, out_ctx)
                want = ref_groupring_to_iwa(lam, theta, out_ctx)
                assert got.to_json() == want.to_json()
        empty = FiniteGroupRingElt(ctx, 2)
        assert groupring_to_iwa(empty, 1).to_json() == \
            ref_groupring_to_iwa(empty, 1).to_json()


def test_ap0_skips_zero_and_constant_entries(monkeypatch):
    # P'^(-1) = [[0, 1], [-eps q^(k+1), 0]] is born in Y, phi is Y -> Y^p
    # with no frobenius call, and the product with A^(n+1) keeps two
    # nonzero entries: one (1+X)-basis change each, at p^(n+1) coefficients
    import padiclog.cycser as cycser
    calls = {"to_onepx_basis": [], "from_onepx_basis": [], "frobenius": []}
    homes = {"to_onepx_basis": _poly, "from_onepx_basis": _poly,
             "frobenius": cycser}
    for name, home in homes.items():
        fn = getattr(home, name)

        def counted(*a, _fn=fn, _name=name, **kw):
            out = _fn(*a, **kw)
            calls[_name].append(len(out))
            return out
        monkeypatch.setattr(home, name, counted)
    for n in (1, 3):
        for name in calls:
            calls[name].clear()
        log_matrix_ap0(params_ap0(3, 12, 0), n)
        assert calls == {"to_onepx_basis": [], "frobenius": [],
                         "from_onepx_basis": [3 ** (n + 1)] * 2}


def reduction_spy(monkeypatch):
    """Count the (Y-1)^cap reductions: the `onepx_rem` calls that divide."""
    seen = [0]
    fn = _poly.onepx_rem

    def spy(ys, cap, p, npow):
        if len(_poly.vec_trim(ys)) > cap:
            seen[0] += 1
        return fn(ys, cap, p, npow)
    monkeypatch.setattr(_poly, "onepx_rem", spy)
    return seen


def ref_log_matrix_ap0(pr, n, theta_index=0):
    """`log_matrix_ap0` as the pi-basis loop on `wach_matrices_ap0`."""
    p, k = pr.ctx.p, pr.k
    wp = pr.ctx.prec + (k + 1) * (n + 1)
    a_scaled, pinv = wach_matrices_ap0(pr, p ** (n + 2), wp)
    mat = ref_log_matrix_from_wach(PrimeCtx(p, wp, pr.ctx.ext), a_scaled, pinv,
                                   0, n, k, theta_index, out_ctx=pr.ctx,
                                   provenance="ap-zero level %d" % n)
    for row in mat.entries:
        for s in row:
            s.growth = Fraction(k + 1, 2)
    return mat


def ref_qinv_times(pr, mat):
    """Q_g^(-1) M as the dense product of widened constant series."""
    cap = max(e.deg_cap for row in mat.entries for e in row)
    qi = q_matrix_inv(pr, "g").map(lambda s: s.widen(cap))
    qi.level = mat.level
    out = qi @ mat
    out.provenance = "Qg^-1 * " + (mat.provenance or "M")
    out.rep_level = mat.rep_level
    return out


def ap0_outcome(p, n, k, eps, prec, theta, ref):
    """The views of M and Q_g^(-1) M (levels included), or what was raised."""
    try:
        pr = params_ap0(p, prec, k, eps)
        if ref:
            mat = ref_log_matrix_ap0(pr, n, theta)
            qm = ref_qinv_times(pr, mat)
        else:
            mat = log_matrix_ap0(pr, n, theta)
            qm = qinv_times(pr, mat)
    except (PadicError, ValueError) as exc:
        return type(exc), str(exc)
    return [view(m) + (m.level, m.rep_level) for m in (mat, qm)]


# every a_p = 0 case with p^(n+2) <= 729, weights past p+1 included
AP0_SWEEP = [(p, n, k) for p in (3, 5, 7) for n in range(5)
             if p ** (n + 2) <= 729 for k in range(p + 3)]


@pytest.mark.parametrize("p,n,k", AP0_SWEEP)
def test_ap0_sweep_matches_pi_loop(p, n, k, monkeypatch):
    seen = reduction_spy(monkeypatch)
    psi = 0
    for prec in (3, 8, 12):
        for eps in (1, -1, 2):
            for theta in (0, 1):
                got = ap0_outcome(p, n, k, eps, prec, theta, False)
                want = ap0_outcome(p, n, k, eps, prec, theta, True)
                assert got == want, (prec, eps, theta)
                psi += got[0] is NotInImage
    # the largest entry, (1+pi) phi^n(c) phi^(n-2)(c) ... with c of degree
    # (k+1)(p-1), reaches degree p^(n+2) exactly when k >= p+1, and then a
    # psi-component survives (ROADMAP item 2)
    assert (seen[0] > 0) == (n > 0 and k > p) == (psi > 0)


@pytest.mark.parametrize("p,n,k,prec", [(3, 1, 0, 4), (3, 1, 1, 4), (3, 1, 2, 4),
                                        (5, 2, 1, 4), (7, 2, 0, 5)])
def test_ap0_small_precision_and_large_window_match_pi_loop(p, n, k, prec):
    # `logmatrix --p 3 --level 1 --prec 4`, and the largest window, 7^4
    for eps in (1, -1, 2):
        for theta in (0, 1):
            got = ap0_outcome(p, n, k, eps, prec, theta, False)
            assert got == ap0_outcome(p, n, k, eps, prec, theta, True)


def rand_entry(rng, ctx):
    """A matrix entry: zero, or random int parts with a w-part (also in a
    context without an extension, which the product rejects), at a random
    precision, window, denominator and growth tag."""
    p = ctx.p
    cap = rng.randint(1, 10)
    prec = rng.randint(1, ctx.prec + 3)
    if rng.random() < 0.25:
        return IwaSeries.zero(ctx, cap, prec)
    m = p ** prec

    def part():
        return [rng.randrange(m) * p ** rng.randint(0, 1) for _ in range(cap)]
    w = rng.random() < (0.5 if ctx.ext else 0.05)
    return IwaSeries(ctx, part(), part() if w else None, prec, cap,
                     rng.randint(0, 3), Fraction(rng.randint(0, 4), 2))


def test_qinv_times_random_matrices_match_product():
    # zeros, w-parts, denominators that force a rescale of the other term,
    # precisions above the context's and unequal windows, over the plain,
    # unramified and ramified contexts a_p = 0 declares
    rng = random.Random(408)
    kinds = set()
    for p in (3, 5):
        for k in range(4):
            for eps in (1, -1, 2):
                try:
                    pr = params_ap0(p, rng.randint(3, 9), k, eps)
                except PadicError:
                    continue
                kinds.add(pr.ctx.ext and pr.ctx.ext[0])
                for _ in range(8):
                    ents = [[rand_entry(rng, pr.ctx) for _ in range(2)]
                            for _ in range(2)]
                    mat = LogMatrix(ents, rng.choice((None, 2)),
                                    rng.choice(("", "M'")), rng.choice((None, 3)))
                    got = outcome(qinv_times, pr, mat)
                    want = outcome(ref_qinv_times, pr, mat)
                    assert got == want
                    if type(got) is not tuple:
                        assert qinv_times(pr, mat).rep_level == mat.rep_level
    assert kinds == {None, "unramified", "ramified"}


def test_q_power_y_matches_wach_entry():
    # wach_matrices_ap0 builds -eps q^(k+1) in pi, truncated at its window;
    # in Y the exact entry agrees with it mod (Y-1)^cap, and equals it when
    # the window holds its degree (k+1)(p-1)
    from padiclog.logmat import _q_power_y
    built = 0
    for p in (3, 5, 7):
        for k in range(p + 3):
            for eps in (1, -1, 2):
                try:
                    pr = params_ap0(p, 7, k, eps)
                except PadicError:      # no alpha with alpha^2 = -eps p^(k+1)
                    continue
                built += 1
                m = pr.ctx.modulus
                deg = (k + 1) * (p - 1)
                want = _poly.vec_scale(_q_power_y(p, k + 1, m), -eps, m)
                assert len(want) == deg + 1 and want[-1] == -eps % m
                for cap in (deg + 1, deg + p, max(2, deg - p)):
                    entry = wach_matrices_ap0(pr, cap)[1][1][0]
                    ys = _poly.to_onepx_basis(entry.a, m)
                    assert ys == _poly.onepx_rem(want, cap, p, 7), (p, k, cap)
    assert built > 30


def test_from_wach_random_lifts_match_pi_loop(monkeypatch):
    # zero, constant, low-degree and near-window entries in every position
    seen = reduction_spy(monkeypatch)
    rng = random.Random(407)
    for _ in range(60):
        shapes = [rng.choice(("zero", "const", "poly", "deep")) for _ in range(4)]
        args = rand_wach_case(rng, shapes)
        kw = {"theta_index": args[6], "out_ctx": args[7]}
        got = outcome(log_matrix_from_wach, *args[:6], **kw)
        want = outcome(ref_log_matrix_from_wach, *args[:6], **kw)
        assert got == want, shapes
    assert seen[0] > 0


@pytest.mark.parametrize("n", [1, 2])
def test_from_wach_rejects_w_part_and_denominator(n):
    pr = params_ap0(3, 6, 0)
    a_scaled, pinv = wach_matrices_ap0(pr, 3 ** (n + 2))
    e = pinv[1][0]
    for i, j, bad in ((1, 0, IwaSeries(e.ctx, e.a, e.a, e.prec, e.deg_cap)),
                      (1, 0, e.rescale(1)),
                      (0, 1, IwaSeries.const(e.ctx, 1, e.deg_cap).rescale(1))):
        lift = [row[:] for row in pinv]
        lift[i][j] = bad
        with pytest.raises(ValueError,
                           match="expected a base-valued series with denom_exp 0"):
            log_matrix_from_wach(pr.ctx, a_scaled, lift, 0, n, 0)


@pytest.mark.parametrize("n", [0, 1])
def test_from_wach_rejects_w_part_of_a(n):
    # the ramified context of a_p = 0 has a w; A[0][0] + w is no base value
    pr = params_ap0(3, 6, 0)
    a_scaled, pinv = wach_matrices_ap0(pr, 3 ** (n + 2))
    num = [row[:] for row in a_scaled.num]
    num[0][0] = num[0][0] + PadicElt(pr.ctx, 0, 1)
    bad = ScaledConstMatrix(num, a_scaled.p_exp)
    with pytest.raises(ValueError,
                       match="expected a base-valued series with denom_exp 0"):
        log_matrix_from_wach(pr.ctx, bad, pinv, 0, n, 0)
