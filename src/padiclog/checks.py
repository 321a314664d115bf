"""Named invariant suites, one per acceptance row.

Each suite returns a JSON-serializable report {"suite", "pass", "details"}
that is deterministic for a fixed seed; the CLI `check` subcommand and the
acceptance tests run exactly these.
"""

from __future__ import annotations

from math import gcd, isqrt

from padiclog.padic import INF, PrimeCtx

# Each suite imports the modules it runs, so that `padiclog check --suite S`
# compiles only S's chain.


def check_cyclotomic_identities(seed=0):
    """omega_n = X * prod Phi_m exactly, p in {3,5,7}, n <= 4, prec 20."""
    from padiclog.iwadist import IwaSeries, omega, phi_cyc
    cases = []
    ok = True
    for p in (3, 5, 7):
        ctx = PrimeCtx(p, 20)
        for n in range(1, 5):
            cap = p ** n + 2
            lhs = omega(ctx, n, cap)
            rhs = IwaSeries.gen(ctx, cap)
            for m in range(1, n + 1):
                rhs = rhs * phi_cyc(ctx, m, cap)
            good = lhs == rhs
            ok = ok and good
            cases.append({"p": p, "n": n, "pass": good})
    return {"suite": "cyclotomic-identities", "pass": ok, "details": cases}


def check_halflog_product(seed=0):
    """halflog+ * halflog- * delta_m = prod Tw^-i(omega_n)/p^(mn), m<=2, n<=3."""
    from padiclog.iwadist import IwaSeries, delta, halflog, omega_tw
    cases = []
    ok = True
    for p in (3, 5):
        ctx = PrimeCtx(p, 20)
        for m in range(1, 3):
            for n in range(1, 4):
                cap = m * p ** n + 2
                lhs = (halflog(ctx, "+", m, n, cap) * halflog(ctx, "-", m, n, cap)
                       * delta(ctx, m, cap))
                rhs = omega_tw(ctx, n, m, cap)
                expect = IwaSeries(ctx, rhs.a, None, rhs.prec, rhs.deg_cap,
                                   denom_exp=m * n)
                good = (lhs.denom_exp == m * n) and lhs == expect
                ok = ok and good
                cases.append({"p": p, "m": m, "n": n, "pass": good})
    return {"suite": "halflog-product", "pass": ok, "details": cases}


def check_mellin_roundtrip(seed=0):
    """`logmat.mellin_read` on 100 random lam at p in {3,5,7}, levels 1-2:
    lam_e at the Y-exponent (1+p)^e reads as sum lam_e (1+X)^e, its
    p-content stripped against the denominator, and one unit of mass at a
    Y-exponent other than 1 mod p raises NotInImage."""
    import random
    from fractions import Fraction
    from math import comb
    from padiclog import logmat
    rng = random.Random(seed)
    trials = 100
    primes, levels = (3, 5, 7), (1, 2)
    fails = 0
    for _ in range(trials):
        p, lvl = rng.choice(primes), rng.choice(levels)
        prec, scale = rng.randint(2, 10), rng.randrange(4)
        wp, q = prec + scale, p ** (lvl + 1)
        coset = [pow(1 + p, e, q) for e in range(p ** lvl)]
        # lam = p^v mu, mu_0 a unit and v < prec: the read strips p^s
        v = rng.randrange(prec)
        s = min(v, scale)
        lam = [p ** v * rng.randrange(1, p ** wp if e else p) % p ** wp
               for e in range(len(coset))]
        at = dict(zip(coset, lam))
        ys = [at.get(j, 0) for j in range(q)]
        want = [sum(c * comb(e, i) for e, c in enumerate(lam)) // p ** s
                % p ** (wp - s) for i in range(len(coset))]
        ctx, args = PrimeCtx(p, prec), (lvl, wp, scale, Fraction(0))
        got, = logmat.mellin_read(ctx, [list(enumerate(ys))], *args)
        good = (logmat._principal_coset(p, lvl) == coset
                and (got.a, got.prec, got.denom_exp) == (want, wp - s, scale - s))
        ys[rng.choice([j for j in range(q) if j % p != 1])] += 1
        try:
            logmat.mellin_read(ctx, [list(enumerate(ys))], *args)
        except logmat.NotInImage:
            fails += not good
        else:
            fails += 1
    return {"suite": "mellin-roundtrip", "pass": fails == 0,
            "details": {"trials": trials, "primes": list(primes),
                        "levels": list(levels), "failures": fails}}


def _unit_witness(x, y, prec, cap, n, k, win):
    """Whether x = unit * y mod (omega_(n-1,k+1), win), with both cut to
    precision prec and window cap; False when no unit witness exists."""
    from padiclog.iwadist import (IwaSeries, NoUnitWitness,
                                  equal_up_to_unit_mod, is_unit)
    ctx = x.ctx
    try:
        u = equal_up_to_unit_mod(
            IwaSeries(ctx, x.a, None, min(x.prec, prec), cap),
            IwaSeries(ctx, y.a, None, min(y.prec, prec), cap),
            n - 1, k + 1, extra_ideals=[win])
    except NoUnitWitness:
        return False
    return is_unit(u)


def check_logmatrix_structure(seed=0):
    """Diagonal vanishing, half-log shape of the antidiagonal, level coherence,
    at precision 14."""
    from padiclog.iwadist import IwaSeries, halflog, omega_tw, poly_reduce
    from padiclog.logmat import CrystalParams, log_matrix_ap0, window_ideal
    prec = 14
    details = []
    ok = True
    for k in (0, 1):
        pr = CrystalParams.ap_zero(3, prec, k)
        mats = {n: log_matrix_ap0(pr, n) for n in (1, 2, 3)}
        ctx = pr.ctx
        scale = lambda n: (k + 1) * (n + 1)
        for n, m in mats.items():
            diag_zero = m.entry(0, 0).is_zero() and m.entry(1, 1).is_zero()
            # antidiagonal = unit x truncated half-logs mod the congruence
            # ideal (omega_(n-1,k+1) together with the representation window)
            floor = max(2, prec - scale(n))
            cap = m.entry(1, 0).deg_cap
            win = window_ideal(m)
            shape_ok = True
            for (i, j, sign, extra) in ((1, 0, "-", 0), (0, 1, "+", k + 1)):
                ent = m.entry(i, j).normalize()
                h = halflog(ctx, sign, k + 1, n, cap)
                h = IwaSeries(ctx, h.a, None, h.prec, h.deg_cap,
                              h.denom_exp + extra, h.growth).normalize()
                dd = ent.denom_exp - h.denom_exp
                e2 = ent if dd >= 0 else ent.rescale(-dd)
                h2 = h.rescale(dd) if dd >= 0 else h
                shape_ok = _unit_witness(e2, h2, floor, cap, n, k,
                                         win) and shape_ok
            details.append({"k": k, "n": n, "diag_zero": diag_zero,
                            "halflog_shape": shape_ok,
                            "witness_prec": floor})
            ok = ok and diag_zero and shape_ok
        # level coherence: level-(n+1) = level-n mod omega_(n,k+1), with the
        # residual valuation floor from the k-dependent denominators
        mats[4] = log_matrix_ap0(pr, 4)
        for n in (1, 2, 3):
            m1, m2 = mats[n], mats[n + 1]
            ideal = omega_tw(pr.ctx, n, k + 1, m2.entry(0, 1).deg_cap)
            vfloor = 0 if k == 0 else -(k + 1) * ((n + 1) // 2 + 1)
            coh = True
            for (i, j) in ((0, 1), (1, 0)):
                a, b = m1.entry(i, j), m2.entry(i, j)
                d = max(a.denom_exp, b.denom_exp)
                a2 = a.rescale(d - a.denom_exp)
                b2 = b.rescale(d - b.denom_exp)
                diff = IwaSeries(pr.ctx, b2.a, None, b2.prec, b2.deg_cap) - \
                    IwaSeries(pr.ctx, a2.a, None, a2.prec, b2.deg_cap)
                r = poly_reduce(diff, ideal)
                mv = r.min_val()
                if not (mv == INF or mv - d >= vfloor):
                    coh = False
            details.append({"k": k, "coherence_pair": (n, n + 1), "pass": coh})
            ok = ok and coh
    return {"suite": "logmatrix-structure", "pass": ok, "details": details}


def check_det_identity(seed=0):
    """det(M') p^(k+1) delta = unit * log_tw mod (p^8, omega_(n-1,k+1)),
    with M' built at precision 16."""
    from padiclog.iwadist import delta, log_tw
    from padiclog.logmat import CrystalParams, log_matrix_ap0, window_ideal
    details = []
    ok = True
    for k in (0, 1):
        pr = CrystalParams.ap_zero(3, 16, k)
        for n in (1, 2, 3):
            m = log_matrix_ap0(pr, n)
            det = -(m.entry(0, 1) * m.entry(1, 0))
            cap = det.deg_cap
            lhs = (det * delta(pr.ctx, k + 1, cap)).times_p(k + 1).normalize()
            rhs = log_tw(pr.ctx, k + 1, n, cap).normalize()
            good = lhs.denom_exp == rhs.denom_exp
            good = good and _unit_witness(lhs, rhs, 8, cap, n, k,
                                          window_ideal(m))
            details.append({"k": k, "n": n, "pass": good})
            ok = ok and good
    return {"suite": "det-identity", "pass": ok, "details": details}


def check_signed_split(seed=0):
    """Roundtrip on 100 random bounded pairs mod (p^8, omega_(3,1)), p=3, k=0,
    n=3, precision 12, plus the constructed NoBoundedSolution rejection."""
    import random
    from padiclog.iwadist import IwaSeries
    from padiclog.logmat import CrystalParams
    from padiclog.split import (AlphaBetaPair, NoBoundedSolution, SignedPair,
                                SplitOperator, forward, signed_split)
    rng = random.Random(seed)
    trials = 100
    pr = CrystalParams.ap_zero(3, 12, 0)
    n = 3
    op = SplitOperator.build(pr, n)
    ctx = pr.ctx
    deg = 3 ** n - 1
    fails = 0
    min_prec = 99
    for _ in range(trials):
        pair = SignedPair(
            IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(deg + 1)],
                      None, None, deg + 1),
            IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(deg + 1)],
                      None, None, deg + 1), n)
        got = signed_split(forward(pair, op.qinv_m), op)
        jointp = min(got.plus.prec, got.minus.prec)
        min_prec = min(min_prec, jointp)
        if not (got.plus == pair.plus and got.minus == pair.minus
                and jointp >= 8):
            fails += 1
    rejected = False
    try:
        one = IwaSeries.const(ctx, 1, 4)
        z = IwaSeries.zero(ctx, 4)
        signed_split(AlphaBetaPair(one, z, n), op)
    except NoBoundedSolution:
        rejected = True
    return {"suite": "signed-split", "pass": fails == 0 and rejected,
            "details": {"trials": trials, "failures": fails,
                        "min_joint_prec": min_prec, "rejection": rejected}}


def check_antisym(seed=0):
    """Recovery of G from det*G for 100 random G at precision 12, and the
    oracle-derived geo-shape output.

    The expected p-power in the geo shape is v_p(alpha beta p^(k+1)/(alpha-beta)^2),
    computed from the eigenvalue data (= k+1 in a_p = 0 mode).
    """
    import random
    from padiclog.iwadist import (IwaSeries, delta, is_unit, log_tw,
                                  solve_series_div)
    from padiclog.logmat import CrystalParams
    from padiclog.padic import inv_scaled
    from padiclog.split import SplitOperator, antisym_factor
    rng = random.Random(seed)
    trials = 100
    pr = CrystalParams.ap_zero(3, 12, 0)
    k, n = 0, 2
    op = SplitOperator.build(pr, n)
    qm = op.qinv_m
    ctx = pr.ctx
    wide = 70
    det = (qm.entry(0, 0).widen(wide) * qm.entry(1, 1).widen(wide)
           - qm.entry(0, 1).widen(wide) * qm.entry(1, 0).widen(wide))
    fails = 0
    for _ in range(trials):
        g = IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(7)],
                      None, None, wide)
        got = antisym_factor(det * g, op)
        if got != g.normalize():
            fails += 1
    # geo shape: L = (log_tw/(beta - alpha)) G
    ab = pr.alpha * pr.beta
    dsq = (pr.alpha - pr.beta) ** 2
    p_power = int((ab.val() + (k + 1)) - dsq.val())
    lt = log_tw(ctx, k + 1, n, wide)
    binv, e = inv_scaled(pr.beta - pr.alpha)
    g = IwaSeries(ctx, [rng.randrange(ctx.modulus) for _ in range(6)],
                  None, None, wide)
    lval = ((lt * g) * binv).times_p(-e)
    got = antisym_factor(lval, op)
    want = (delta(ctx, k + 1, got.deg_cap) * g.widen(got.deg_cap)).times_p(p_power)
    ratio = solve_series_div(got.normalize(), want.normalize()).normalize()
    geo_ok = is_unit(ratio) and p_power == k + 1
    return {"suite": "antisym", "pass": fails == 0 and geo_ok,
            "details": {"trials": trials, "failures": fails,
                        "geo_shape_unit_ratio": geo_ok,
                        "derived_p_power": p_power}}


def check_regdiv(seed=0):
    """200 positive and 200 coprime trials of the divisibility criterion
    checker."""
    import random
    from padiclog.regdiv import MSeries, SpecFamily, _monomials, chevalley_check
    rng = random.Random(seed)
    trials = 200
    ctx = PrimeCtx(5, 10)

    def rand_ms(deg, cap=7, unit_const=False, zero_const=False):
        coeffs = {}
        for mo in _monomials(2, deg + 1):
            if rng.random() < 0.7:
                coeffs[mo] = rng.randrange(ctx.modulus)
        if unit_const:
            c = coeffs.get((0, 0), 0)
            if c % 5 == 0:
                coeffs[(0, 0)] = c + 1
        elif not zero_const:
            # keep the content trivial so hypothesis (a) holds for products
            if all(v % 5 == 0 for v in coeffs.values()):
                coeffs[(1, 0)] = coeffs.get((1, 0), 0) + 1
        if zero_const:
            coeffs[(0, 0)] = 5 * rng.randrange(ctx.modulus // 5)
            e1 = coeffs.get((0, 1), 0)
            if e1 % 5 == 0:
                coeffs[(0, 1)] = e1 + 1
        return MSeries(ctx, 2, coeffs, cap)

    fam_points = [5 * i for i in range(1, 11)]
    pos_fail = 0
    for _ in range(trials):
        f = rand_ms(2, unit_const=True)
        h = rand_ms(2)
        rpt = chevalley_check(f, f * h, SpecFamily(ctx, fam_points))
        if not (rpt.hypotheses_pass() and rpt.direct_ok):
            pos_fail += 1
    cop_detected = 0
    for _ in range(trials):
        f = rand_ms(2, zero_const=True)   # non-unit, x1-regular
        g = rand_ms(2, unit_const=True)   # unit constant term
        rpt = chevalley_check(f, g, SpecFamily(ctx, fam_points))
        if not rpt.points_ok:
            cop_detected += 1
    # the constructed finite counterexample
    a1, a2, a3 = 5, 10, 15
    b = a3 + 5 ** 3
    f = MSeries.var(ctx, 2, 0, 7) - MSeries.const(ctx, 2, b, 7)
    h = rand_ms(2, cap=7)
    x0 = MSeries.var(ctx, 2, 0, 7)
    extra = (x0 - MSeries.const(ctx, 2, a1, 7)) * (x0 - MSeries.const(ctx, 2, a2, 7))
    g = f * h + extra
    r12 = chevalley_check(f, g, SpecFamily(ctx, [a1, a2]))
    r123 = chevalley_check(f, g, SpecFamily(ctx, [a1, a2, a3]))
    counter_ok = (r12.points_ok and r12.direct_ok is False
                  and not r123.points_ok)
    ok = pos_fail == 0 and cop_detected >= int(0.99 * trials) and counter_ok
    return {"suite": "regdiv", "pass": ok,
            "details": {"positive_failures": pos_fail,
                        "coprime_detected": cop_detected,
                        "coprime_trials": trials,
                        "counterexample": counter_ok}}


def check_galimg(seed=0):
    """Closure orders, the Kronecker-product certificate, the product check."""
    from padiclog.galimg import (MatGroupGen, closure, find_tau,
                                 goursat_product_check, kron, min_poly)
    sl2_5 = MatGroupGen(5, [((1, 1), (0, 1)), ((0, 1), (4, 0))])
    sl2_7 = MatGroupGen(7, [((1, 1), (0, 1)), ((0, 1), (6, 0))])
    o5 = len(closure(sl2_5))
    o7 = len(closure(sl2_7))
    t = kron(((1, 1), (0, 1)), ((0, 1), (1, 0)), 7)
    mp = min_poly(t, 7)
    target = [1, 0, 5, 0, 1]
    grp = MatGroupGen(7, [t])
    cert = find_tau(grp)
    g, gp = ((1, 1), (0, 1)), ((0, 1), (4, 0))
    v = goursat_product_check(5, [(g, ((1, 0), (0, 1))), (gp, ((2, 0), (0, 1)))])
    ok = (o5 == 120 and o7 == 336 and mp == target and cert is not None
          and cert.rank_t_minus_1 == 3 and v.full_product and v.order_h == 480)
    return {"suite": "galimg", "pass": ok,
            "details": {"sl2_f5": o5, "sl2_f7": o7, "minpoly": mp,
                        "rank": None if cert is None else cert.rank_t_minus_1,
                        "goursat_order": v.order_h}}


def _gauss_theta_oracle(t, n_max):
    """sum of Re((a+bi)^t) q^(a^2+b^2) over Z[i] up to associates.

    Enumerates Gaussian integers directly, sharing no code with
    `theta_series`; one a+bi per class {x, -x, ix, -ix}.
    """
    out = [0] * n_max
    seen = set()
    bound = isqrt(n_max)
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            n = a * a + b * b
            key = min((a, b), (-a, -b), (-b, a), (b, -a))
            if not 1 <= n <= n_max or key in seen:
                continue
            seen.add(key)
            x, y = 1, 0
            for _ in range(t):
                x, y = x * a - y * b, x * b + y * a
            out[n - 1] += x
    return out


def check_theta(seed=0):
    """D=-4, t=4 theta coefficients vs brute force, multiplicativity, Euler."""
    import random
    from padiclog._poly import isprime, jacobi
    from padiclog.qexp import ImagQuadCtx, dirichlet_from_euler, theta_series
    rng = random.Random(seed)
    ctx = ImagQuadCtx(-4, 4)
    th = theta_series(ctx, 200)
    enum_ok = th.coeffs == _gauss_theta_oracle(4, 200)
    spot_ok = (th.coeff(1) == 1 and th.coeff(2) == -4 and th.coeff(5) == -14)
    inert_ok = all(th.coeff(p) == 0 for p in (3, 7, 11, 19, 23, 31, 43)
                   if jacobi(-4, p) == -1)
    pairs = [(m, n) for m in range(1, 40) for n in range(2, 200)
             if gcd(m, n) == 1 and m * n <= 200]
    mult_fail = 0
    for _ in range(500):
        m, n = pairs[rng.randrange(len(pairs))]
        if th.coeff(m * n) != th.coeff(m) * th.coeff(n):
            mult_fail += 1
    factors = {}
    for ell in filter(isprime, range(3, 51)):
        factors[ell] = [1, -th.coeff(ell), jacobi(-4, ell) * ell ** 4]
    t = dirichlet_from_euler(factors, 50)
    euler_ok = all(t[n - 1] == th.coeff(n) for n in range(1, 51) if n % 2)
    ok = enum_ok and spot_ok and inert_ok and mult_fail == 0 and euler_ok
    return {"suite": "theta", "pass": ok,
            "details": {"enumeration": enum_ok, "spot_values": spot_ok,
                        "inert_vanishing": inert_ok,
                        "multiplicativity_failures": mult_fail,
                        "euler_cross_check": euler_ok}}


SUITES = {
    "cyclotomic-identities": check_cyclotomic_identities,
    "halflog-product": check_halflog_product,
    "mellin-roundtrip": check_mellin_roundtrip,
    "logmatrix-structure": check_logmatrix_structure,
    "det-identity": check_det_identity,
    "signed-split": check_signed_split,
    "antisym": check_antisym,
    "regdiv": check_regdiv,
    "galimg": check_galimg,
    "theta": check_theta,
}


def run_suite(name, seed=0):
    if name not in SUITES:
        raise KeyError("unknown suite %r; have %s" % (name, sorted(SUITES)))
    return SUITES[name](seed=seed)
