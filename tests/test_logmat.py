import random
from fractions import Fraction
from math import comb

import pytest

from padiclog import _poly
from padiclog.cycser import mellin_inverse
from padiclog.iwadist import (
    CharPoint, IwaSeries, NoUnitWitness, delta, equal_up_to_unit_mod, eval_at,
    halflog, is_unit, log_tw, omega_tw, poly_reduce,
)
from padiclog.logmat import (
    AP_ZERO, CrystalParams, DegenerateEigenvalues, LogMatrix, NotInImage,
    WrongMode, const_matrix, log_matrix_ap0, q_fg_block,
    q_fg_inv_block, q_matrix, q_matrix_inv, qinv_times, semi_ordinary_block,
    window_ideal,
)
from padiclog.padic import PadicError, PrimeCtx


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
        assert pr.alpha.val() == Fraction(k + 1, 2)


def test_q_matrix_ap0_shape():
    # in a_p = 0 mode Q_g = (1/2) [[1, 1], [alpha, -alpha]]
    pr = params_ap0(3, 10, 0)
    q = q_matrix(pr)
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
    q = q_matrix(pr)
    qi = q_matrix_inv(pr)
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
    d = q_matrix(pr).det()
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
        q_matrix(pr)


def test_log_matrix_ap0_wrong_mode():
    ctx = PrimeCtx(5, 8)
    pr = CrystalParams(ctx, 0, ctx.one(), ctx.from_int(2),
                       ctx.from_int(pow(2, -1, 5 ** 8) * 5 % 5 ** 8), "FL-supplied")
    with pytest.raises(WrongMode):
        log_matrix_ap0(pr, 1)


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
    # lower-right = ell * Tw^(k_f+1) M entrywise, ell = log_tw/delta the
    # product of the two half-logarithms (no division on this side)
    from padiclog.iwadist import twist
    need = (k_f + 1) * 9 + 2
    ell = (halflog(ctx, "+", k_f + 1, 2, need)
           * halflog(ctx, "-", k_f + 1, 2, need))
    for i in range(2):
        for j in range(2):
            assert blk.entry(2 + i, 2 + j) == ell * twist(mg.entry(i, j), k_f + 1)


def test_q_fg_block_and_inverse():
    pr = params_ap0(3, 10, 0)
    ctx = pr.ctx
    # ordinary pair for f: alpha_f unit, beta_f = eps_f p^(k_f+1)/alpha_f
    alpha_f = ctx.from_int(2)
    beta_f = ctx.from_int(pow(2, -1, ctx.modulus) * 3 ** 2)
    qg = q_matrix(pr)
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
    # Q_fg^-1 M'_fg is block lower-triangular: its upper-left block is
    # Q_g^-1 M'_g when u_f = 1, and its upper-right block is 0
    pr = params_ap0(3, 8, 0)
    mg = log_matrix_ap0(pr, 2)
    ctx = pr.ctx
    cap = mg.entry(0, 1).deg_cap
    z = IwaSeries.zero(ctx, cap)
    mfg = semi_ordinary_block(mg, 1, 1, [[z, z], [z, z]])
    alpha_f = ctx.from_int(2)
    beta_f = ctx.from_int(pow(2, -1, ctx.modulus) * 3 ** 2)
    qfginv = q_fg_inv_block(pr, alpha_f, beta_f)
    got = qfginv @ mfg
    want = qinv_times(pr, mg)
    for i in range(2):
        for j in range(2):
            assert got.entry(i, j) == want.entry(i, j)
        for j in (2, 3):
            assert got.entry(i, j).is_zero()


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
        q = q_matrix(pr)
        qi = q_matrix_inv(pr)
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


# -- the log matrix against the pi-basis loop -----------------------------------
#
# `log_matrix_ap0` runs on int vectors in Y = 1+pi and builds only the two
# corners of its antidiagonal closed form; the Mellin read and the
# Delta-projection are one pass over the principal coset.  The reference
# below multiplies the 2x2 matrices out, with zeros as None.  It builds P^(-1)
# in pi itself (q from its binomial row), applies phi by Horner substitution
# to each nonconstant entry and level, truncates at pi^(p^(n+2)) after every
# product, and takes a `mellin_inverse` per entry and the dict-and-dlog
# projection of every coset with an iterated-power Teichmuller split; both
# must give identical JSON.


def ref_groupring_to_iwa(lam, lvl, prec, ctx):
    """The trivial-character projection of the level-lvl group-ring element
    {a: lam_a} known mod p^prec, as a series in ctx's prime."""
    p = ctx.p
    q = p ** (lvl + 1)
    u = 1 + p
    dlog = {}
    x = 1
    for e in range(p ** lvl):
        dlog[x] = e
        x = x * u % q
    m = p ** prec
    bs = [0] * (p ** lvl)
    for a, c in lam.items():
        t = a % q
        while True:
            nt = pow(t, p, q)
            if nt == t:
                break
            t = nt
        e = dlog[a * pow(t, -1, q) % q]
        bs[e] = (bs[e] + c) % m
    coeffs = _poly.from_onepx_basis(bs, m, p ** lvl)
    return IwaSeries(ctx, coeffs, None, prec, p ** lvl)


def view(mat):
    """JSON of a matrix, with the context of every entry."""
    return mat.to_json(), [[(e.ctx.prec, e.ctx.ext) for e in row]
                           for row in mat.entries]


def outcome(fn, *args, **kw):
    """The view of fn's matrix, or the type and message of what it raised."""
    try:
        return view(fn(*args, **kw))
    except (PadicError, ValueError) as exc:
        return type(exc), str(exc)


def test_ap0_skips_zero_and_constant_entries(monkeypatch):
    # P'^(-1) = [[0, 1], [-eps q^(k+1), 0]] is born in Y, phi is Y -> Y^p,
    # and the product with A^(n+1) keeps two nonzero entries: one kernel
    # call shifts both from their nonzero terms alone, 3 = (k+1)(p-1)+1 for
    # each factor c_i of a corner, into p^(n+1) coefficients; no dense
    # wrapper runs, and the zero diagonal sends nothing
    calls = {name: [] for name in ("to_onepx_basis", "from_onepx_basis",
                                   "taylor_shift", "taylor_shifts",
                                   "taylor_shift_terms")}
    for name in calls:
        fn = getattr(_poly, name)

        def counted(*a, _fn=fn, _name=name, **kw):
            calls[_name].append(([len(t) for t in a[0]], a[-1])
                                if _name == "taylor_shift_terms" else len(a[0]))
            return _fn(*a, **kw)
        monkeypatch.setattr(_poly, name, counted)
    for n, corners in ((1, [1, 3]), (3, [3, 9])):
        for name in calls:
            calls[name].clear()
        log_matrix_ap0(params_ap0(3, 12, 0), n)
        assert calls == {"to_onepx_basis": [], "from_onepx_basis": [],
                         "taylor_shift": [], "taylor_shifts": [],
                         "taylor_shift_terms": [(corners, 3 ** (n + 1))]}


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


def ref_wach_entry(pr, cap, prec):
    """-eps q^(k+1) in pi at precision prec and window cap, the one
    nonconstant entry of P'^(-1), with q = ((1+pi)^p - 1)/pi read off the
    binomial row of (1+pi)^p."""
    p = pr.ctx.p
    ctx = PrimeCtx(p, prec, pr.ctx.ext)
    q = IwaSeries(ctx, [comb(p, i + 1) for i in range(p)], None, prec, cap)
    entry = IwaSeries.const(ctx, -pr.eps.a, cap, prec)
    for _ in range(pr.k + 1):
        entry = entry * q
    return entry


def ref_phi(f):
    """phi(f) = f((1+pi)^p - 1) in f's window, by Horner substitution on the
    schoolbook product.  (1+pi)^p - 1 = pi g with g of degree p-1, so each
    step lengthens the partial result by at most p coefficients."""
    p, m, cap = f.ctx.p, f.modulus(), f.deg_cap
    g = [comb(p, i) % m for i in range(1, p + 1)]
    coeffs = [c % m for c in f.a]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    out = []
    for c in reversed(coeffs):
        nxt = [0] * min(cap, len(out) + p)
        for i, x in enumerate(out):
            for j, y in enumerate(g, i + 1):
                if j >= len(nxt):
                    break
                nxt[j] = (nxt[j] + x * y) % m
        nxt[0] = (nxt[0] + c) % m
        out = nxt
    return IwaSeries(f.ctx, out + [0] * (cap - len(out)), None, f.prec, cap)


def ref_log_matrix_ap0(pr, n):
    """`log_matrix_ap0` as the sparse pi-basis loop: zeros as None, phi on
    each nonconstant entry, truncation at pi^(p^(n+2)) after every product
    and one `mellin_inverse` per nonzero output entry."""

    def dot(pairs):
        acc = None
        for x, y in pairs:
            if x is not None and y is not None:
                acc = x * y if acc is None else acc + x * y
        return acc

    p, k = pr.ctx.p, pr.k
    rep = n + 1
    cap = p ** (rep + 1)
    scale = (k + 1) * rep
    wp = pr.ctx.prec + scale
    ctx = PrimeCtx(p, wp, pr.ctx.ext)
    m = ctx.modulus
    cur = [[None, IwaSeries.const(ctx, 1, cap)],
           [ref_wach_entry(pr, cap, wp), None]]
    prod = None
    for _ in range(n):
        cur = [[e if e is None or not any(e.a[1:]) else ref_phi(e) for e in row]
               for row in cur]
        prod = cur if prod is None else [
            [dot((cur[i][t], prod[t][j]) for t in range(2)) for j in range(2)]
            for i in range(2)]
    if prod is None:
        one = IwaSeries.const(ctx, 1, cap)
        prod = [[one, None], [None, one]]
    # p^(k+1) A' = [[0, -1/eps], [p^(k+1), 0]]
    araw = [[0, -pow(pr.eps.a, -1, m)], [p ** (k + 1), 0]]
    an = [[1, 0], [0, 1]]
    for _ in range(n + 1):
        an = [[(an[i][0] * araw[0][j] + an[i][1] * araw[1][j]) % m
               for j in range(2)] for i in range(2)]
    an = [[c or None for c in row] for row in an]
    opp = one_plus_pi_pow(ctx, 1, cap)
    out = []
    for i in range(2):
        orow = []
        for j in range(2):
            s = dot((prod[t][j], an[i][t]) for t in range(2))
            if s is None:
                ent = IwaSeries.zero(pr.ctx, p ** rep, wp)
            else:
                h = opp * s
                ent = ref_groupring_to_iwa(mellin_inverse(h, rep), rep,
                                           h.prec, pr.ctx)
            ent.denom_exp = scale
            ent.growth = Fraction(k + 1, 2)
            orow.append(ent.normalize())
        out.append(orow)
    return LogMatrix(out, level=n, provenance="ap-zero level %d" % n)


def ref_qinv_times(pr, mat):
    """Q_g^(-1) M as the dense product of widened constant series."""
    cap = max(e.deg_cap for row in mat.entries for e in row)
    qi = q_matrix_inv(pr).map(lambda s: s.widen(cap))
    qi.level = mat.level
    out = qi @ mat
    out.provenance = "Qg^-1 * " + (mat.provenance or "M")
    return out


def ap0_outcome(p, n, k, eps, prec, ref):
    """The views of M and Q_g^(-1) M (levels included), or what was raised."""
    try:
        pr = params_ap0(p, prec, k, eps)
        if ref:
            mat = ref_log_matrix_ap0(pr, n)
            qm = ref_qinv_times(pr, mat)
        else:
            mat = log_matrix_ap0(pr, n)
            qm = qinv_times(pr, mat)
    except (PadicError, ValueError) as exc:
        return type(exc), str(exc)
    return [view(m) + (m.level,) for m in (mat, qm)]


# every a_p = 0 case with p^(n+2) <= 729, weights past p+1 included
AP0_SWEEP = [(p, n, k) for p in (3, 5, 7) for n in range(5)
             if p ** (n + 2) <= 729 for k in range(p + 3)]


@pytest.mark.parametrize("p,n,k", AP0_SWEEP)
def test_ap0_sweep_matches_pi_loop(p, n, k, monkeypatch):
    seen = reduction_spy(monkeypatch)
    psi = 0
    for prec in (3, 8, 12):
        for eps in (1, -1, 2):
            got = ap0_outcome(p, n, k, eps, prec, False)
            want = ap0_outcome(p, n, k, eps, prec, True)
            assert got == want, (prec, eps)
            psi += got[0] is NotInImage
    # the largest entry, (1+pi) phi^n(c) phi^(n-2)(c) ... with c of degree
    # (k+1)(p-1), reaches degree p^(n+2) exactly when k >= p+1, and then a
    # psi-component survives (ROADMAP item 5)
    assert (seen[0] > 0) == (n > 0 and k > p) == (psi > 0)


@pytest.mark.parametrize("p,n,k,prec", [(3, 1, 0, 4), (3, 1, 1, 4), (3, 1, 2, 4),
                                        (5, 2, 1, 4), (7, 2, 0, 5), (5, 3, 0, 4),
                                        (3, 5, 0, 12), (3, 5, 1, 8),
                                        (5, 3, 1, 12), (7, 2, 1, 8)])
def test_ap0_small_precision_and_large_window_match_pi_loop(p, n, k, prec):
    # `logmatrix --p 3 --level 1 --prec 4`, the largest windows, 7^4 and
    # 5^5, and the top rungs of the benchmark ladder, 3^7 among them; the
    # reference projects every coset, the library reads only the principal
    # one, the only one a product (1+pi) phi(...) reaches
    for eps in (1, -1, 2):
        got = ap0_outcome(p, n, k, eps, prec, False)
        assert got == ap0_outcome(p, n, k, eps, prec, True)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mass_outside_the_principal_coset_raises(p):
    # Y-exponents = 1 mod p pass; any other nonzero exponent prime to p
    # raises at the first such position, and psi = 0 is checked before it
    from padiclog.logmat import _check_support
    m = p ** 4
    ys = [0] * p ** 3
    ys[1::p] = [5] * len(ys[1::p])
    _check_support(enumerate(ys), p, m)
    for j in (2, p + 2, p * p - 1, len(ys) - 1):
        bad = list(ys)
        bad[j] = m + 3
        with pytest.raises(NotInImage, match=r"^mass outside the principal "
                           r"coset at \(1\+pi\)\^%d$" % j):
            _check_support(enumerate(bad), p, m)
    # a psi-position mass is reported before an earlier off-coset mass
    bad = list(ys)
    bad[2] = bad[p * p] = 1
    with pytest.raises(NotInImage,
                       match=r"^psi-component survives at \(1\+pi\)\^%d$"
                       % (p * p)):
        _check_support(enumerate(bad), p, m)
    bad = list(ys)
    bad[2] = bad[p] = m
    _check_support(enumerate(bad), p, m)


def _bump_first_coefficient(fn):
    def bumped(*args):
        out = fn(*args)
        out[0].a[0] = (out[0].a[0] + 1) % out[0].modulus()
        return out
    return bumped


@pytest.mark.parametrize("name,mutant", [
    ("_check_support", lambda fn: lambda *args: None),
    ("_principal_coset", lambda fn: lambda *args: fn(*args)[::-1]),
    ("mellin_read", _bump_first_coefficient),
], ids=["support-check-off", "coset-reversed", "entry-bumped"])
def test_mellin_roundtrip_suite_catches_mutants(name, mutant, monkeypatch):
    # the suite reads through `logmat.mellin_read`, so a broken step of the
    # read the log matrix runs makes it report a failure
    from padiclog import checks, logmat
    monkeypatch.setattr(logmat, name, mutant(getattr(logmat, name)))
    assert checks.run_suite("mellin-roundtrip", seed=0)["pass"] is False


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
                                    rng.choice(("", "M'")))
                    got = outcome(qinv_times, pr, mat)
                    want = outcome(ref_qinv_times, pr, mat)
                    assert got == want
    assert kinds == {None, "unramified", "ramified"}


def test_q_power_y_matches_wach_entry():
    # the pi-basis reference builds -eps q^(k+1) truncated at its window;
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
                    entry = ref_wach_entry(pr, cap, 7)
                    ys = _poly.to_onepx_basis(entry.a, m)
                    assert ys == _poly.onepx_rem(want, cap, p, 7), (p, k, cap)
    assert built > 30


def normalized_entries(monkeypatch, pr, n):
    """The entries of log_matrix_ap0(pr, n) that went through
    `IwaSeries.normalize`: only the unsound strip does, for an entry that
    vanishes at the context's precision but not at p^s (ROADMAP item 2);
    every other entry is shifted with its content already stripped."""
    seen = []
    normalize = IwaSeries.normalize

    def spy(self):
        out = normalize(self)
        seen.append(out)
        return out
    monkeypatch.setattr(IwaSeries, "normalize", spy)
    try:
        mat = log_matrix_ap0(pr, n)
    finally:
        monkeypatch.setattr(IwaSeries, "normalize", normalize)
    return [(i, j) for i in range(2) for j in range(2)
            if any(mat.entry(i, j) is e for e in seen)], len(seen)


def test_unsound_strip_only_where_the_digits_vanish(monkeypatch):
    # `logmatrix --p 3 --k 2 --level 4 --prec 8`: entry (1,0) vanishes mod
    # 3^8 and is stripped by 3^15 at wp = 23; at --prec 24 its denom_exp is 6
    assert normalized_entries(monkeypatch, params_ap0(3, 8, 2), 4) == ([(1, 0)], 1)
    # the benchmark's ladder never takes that branch
    for p, n in ((3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)):
        for k in (0, 1):
            assert normalized_entries(monkeypatch, params_ap0(p, 12, k), n) == ([], 0)


def disagreeing_coefficients(low, high, p):
    """How many coefficients of the entry `low` differ from `high`, built at
    a higher precision, reduced to low's reported precision: a / p^d known
    mod p^(prec - d)."""
    assert high.prec - high.denom_exp >= low.prec - low.denom_exp
    m = p ** (low.prec + high.denom_exp)
    return sum(1 for x, y in zip(low.a, high.a)
               if (x * p ** high.denom_exp - y * p ** low.denom_exp) % m)


def test_eps_one_matches_a_higher_precision_build():
    low = log_matrix_ap0(params_ap0(3, 5, 1, 1), 2)
    high = log_matrix_ap0(params_ap0(3, 30, 1, 1), 2)
    for i in range(2):
        for j in range(2):
            assert disagreeing_coefficients(low.entry(i, j), high.entry(i, j), 3) == 0


@pytest.mark.xfail(strict=True, reason=(
    "log_matrix_ap0 reads params.eps.a, the residue of eps mod p^prec, as an "
    "int mod p^wp: for eps = -1 at (p, k, n) = (3, 1, 2) and prec 5, entry "
    "(0,1) differs from the prec-30 build in 23 of its 27 coefficients.  "
    "Lifting eps exactly changes the split pins at the eps = -1 keys, so the "
    "fix belongs to the one-precision-per-series refactor (ROADMAP item 2)."))
def test_negative_eps_matches_a_higher_precision_build():
    low = log_matrix_ap0(params_ap0(3, 5, 1, -1), 2)
    high = log_matrix_ap0(params_ap0(3, 30, 1, -1), 2)
    assert disagreeing_coefficients(low.entry(0, 1), high.entry(0, 1), 3) == 0
