"""Logarithmic matrices from Frobenius data on the pi-adic coefficient ring.

The a_p = 0 case is built from first principles: the crystalline Frobenius
matrix has the explicit antidiagonal shape [[0, -1/(eps p^(k+1))], [1, 0]] and
its Wach-ring lift replaces p^(k+1) by q^(k+1).  The level-n logarithmic
matrix is the finite-level Mellin inverse of

    (1+pi) * A^(n+1) * phi^n(P^(-1)) ... phi(P^(-1)),

computed integrally at boosted precision (the A-power denominators are
tracked as one explicit p-power) and projected to the trivial
Delta-isotypic component.

The whole path runs on exact ints in the variable Y = 1+pi, each
polynomial held as its nonzero (exponent, coefficient) terms.  In Y,
q = phi(pi)/pi = (Y^p - 1)/(Y - 1) = 1 + Y + ... + Y^(p-1), so the one
nonconstant entry c = -eps q^(k+1) of P^(-1) has degree (k+1)(p-1).  phi is
Y -> Y^p, the products are untruncated, and 1+pi raises each exponent by
one.  Truncation mod pi^cap is reduction mod (Y-1)^cap, a ring map, so it
is applied only where an exponent reaches cap (for a_p = 0, when
k >= p+1): one division by (Y-1)^cap, `_poly.onepx_rem`.

Every factor phi^i(P^(-1)) = [[0, 1], [c_i, 0]], c_i = phi^i(c), is
antidiagonal, so phi^n(P^(-1)) ... phi(P^(-1)) is [[0, E], [O, 0]] for odd
n and [[O, 0], [0, E]] for even n, with E and O the products of the c_i
over the even and the odd 0 < i <= n.  The lift A~ = p^(k+1) A' =
[[0, -1/eps], [p^(k+1), 0]] squares to the scalar t = -p^(k+1)/eps, so the
level-n matrix is antidiagonal: its (0,1) corner is t^((n+1)/2) E and its
(1,0) corner t^((n+1)/2) O for odd n, and t^(n/2) (-E/eps) and
t^(n/2) p^(k+1) O for even n: the even (plus) and odd (minus) products, the
pairing of the half-logs.  The diagonal is exactly zero.  Each c_i has at
most (k+1)(p-1)+1 terms, p^i apart, so E and O are chains of products over
pairs of terms (`_poly.sparse_mul`), 25 terms each at p = 3, n = 4, k = 1
where the dense corner has 243 coefficients.

The Mellin inverse and the Delta-projection of both corners are one read
of their terms, `mellin_read`, the package's one Mellin read.  Exponents
divisible by p must vanish (psi = 0); the product (1+pi) phi(...) is
supported on the exponents = 1 mod p, the principal coset (1+p)^e of the
units mod p^(n+2), and mass anywhere else raises (`_check_support`).  The
trivial-character projection [(1+p)^e] -> (1+X)^e maps each term to the
(1+X)-basis term of exponent e, and one basis change, unipotent over Z,
takes both corners to the X basis in one `_poly.taylor_shift_terms` call:
only its outputs are dense.  Being unipotent, the change keeps the
p-content that `normalize` would strip afterwards, so the content is read
off the terms (one gcd) and divided out first.

In a_p = 0 mode beta = -alpha, so Q_g^(-1) = [[1, c], [1, -c]], c =
1/alpha, and Q_g^(-1) M (`qinv_times`) takes one inverse of alpha: per
column (f0, f1) of M, P = f0 and Q = c f1 are scaled once and the rows
are P + Q and P - Q.  Each column of the log matrix has one zero entry,
so three vector passes build the product; a zero adds only its
precision, denominator and growth, and where Q is zero both rows are one
series.

The general Fontaine-Laffaille-style case has no explicit Frobenius lift
formula here, so only a_p = 0 builds a logarithmic matrix; the
distinct-eigenvalue mode (`CrystalParams.fl_supplied`) carries a pair of
distinct eigenvalues, for which `q_matrix` and `q_matrix_inv` build the
eigenvector change of basis Q_g.  The ordinary form f of the Rankin-Selberg
block enters only through its pair alpha_f, beta_f (`q_fg_block`,
`q_fg_inv_block`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from padiclog import _poly
from padiclog.iwadist import (InsufficientDegree, IwaSeries, delta, log_tw,
                              omega, solve_series_div, twist)
from padiclog.padic import PadicElt, PadicError, PrimeCtx, inv_scaled, sqrt


class WrongMode(PadicError):
    pass


class NotInImage(PadicError):
    pass


class DegenerateEigenvalues(PadicError):
    pass


AP_ZERO = "ap-zero"
FL_SUPPLIED = "FL-supplied"


class CrystalParams:
    """Weight, nebentype value at p, and the eigenvalue pair alpha, beta."""

    def __init__(self, ctx, k, eps, alpha, beta, mode):
        self.ctx = ctx
        self.k = k
        self.eps = eps
        self.alpha = alpha
        self.beta = beta
        self.mode = mode
        if not eps.is_unit():
            raise ValueError("eps(p) must be a unit")
        if alpha * beta != eps * ctx.p ** (k + 1):
            raise ValueError("alpha * beta must equal eps(p) * p^(k+1)")
        if mode == AP_ZERO:
            if beta != -alpha:
                raise ValueError("a_p = 0 requires beta = -alpha")

    @classmethod
    def fl_supplied(cls, ctx, k, eps, alpha, beta):
        """Distinct-eigenvalue mode, for the eigenvalues of an ordinary form."""
        if (alpha - beta).is_zero():
            raise DegenerateEigenvalues("alpha = beta at working precision")
        return cls(ctx, k, eps, alpha, beta, FL_SUPPLIED)

    @classmethod
    def ap_zero(cls, p, prec, k, eps=1):
        """Declare the extension needed for alpha with alpha^2 = -eps * p^(k+1)."""
        # the plain context checks p before any residue mod p is taken
        ctx = PrimeCtx(p, prec)
        if k % 2 == 0:
            # odd valuation (k+1)/2: ramified w^2 = c p with c = -eps
            ctx = PrimeCtx(p, prec, ("ramified", -eps))
        elif _poly.jacobi(-eps, p) == -1:
            ctx = PrimeCtx(p, prec, ("unramified", -eps))
        alpha = sqrt(ctx.from_int(-eps * p ** (k + 1)))
        epse = ctx.from_int(eps)
        return cls(ctx, k, epse, alpha, -alpha, AP_ZERO)

    def __repr__(self):
        return "CrystalParams(p=%d, k=%d, mode=%s)" % (self.ctx.p, self.k, self.mode)


class LogMatrix:
    """Square matrix of IwaSeries with a congruence-level tag.

    A level-n matrix lives in the group ring of level n + 1: its entries are
    only meaningful modulo omega_(n+1), and congruence statements about them
    must include that window ideal (`window_ideal`).
    """

    def __init__(self, entries, level=None, provenance=""):
        self.entries = entries
        self.dim = len(entries)
        self.level = level
        self.provenance = provenance

    def entry(self, i, j):
        return self.entries[i][j]

    def map(self, fn):
        return LogMatrix([[fn(e) for e in row] for row in self.entries],
                         self.level, self.provenance)

    def __matmul__(self, other):
        n = self.dim
        assert other.dim == n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for t in range(n):
                    term = self.entries[i][t] * other.entries[t][j]
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        lvl = self.level if self.level is not None else other.level
        return LogMatrix(out, lvl, "product")

    def det(self):
        if self.dim != 2:
            raise ValueError("determinant implemented for 2x2 only")
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def to_json(self):
        # an entry object that appears twice is converted once
        done = {}
        return {"dim": self.dim, "level": self.level,
                "provenance": self.provenance,
                "entries": [[done.get(id(e)) or done.setdefault(id(e), e.to_json())
                             for e in row] for row in self.entries]}

    def __repr__(self):
        return "LogMatrix(dim=%d, level=%r, %s)" % (self.dim, self.level, self.provenance)


def const_matrix(ctx, rows, deg_cap=1, denoms=None):
    """Matrix of constant IwaSeries from PadicElt/int entries."""
    out = []
    for i, row in enumerate(rows):
        orow = []
        for j, c in enumerate(row):
            s = IwaSeries.const(ctx, c, deg_cap)
            if denoms:
                s.denom_exp = denoms[i][j]
            orow.append(s)
        out.append(orow)
    return LogMatrix(out)


def q_matrix(params):
    """The eigenvector change-of-basis matrix Q_g = [[alpha, -beta],
    [-alpha beta, alpha beta]] / (alpha - beta) (constant entries)."""
    ctx = params.ctx
    al, be = params.alpha, params.beta
    diff = al - be
    if diff.is_zero():
        raise DegenerateEigenvalues("alpha = beta at working precision")
    dinv, e = inv_scaled(diff)
    ab = al * be
    rows = [[al * dinv, -be * dinv], [-ab * dinv, ab * dinv]]
    denoms = [[e, e], [e, e]]
    m = const_matrix(ctx, rows, 1, denoms)
    return m.map(lambda s: s.normalize())


def q_matrix_inv(params):
    """Exact inverse of q_matrix: Q_g^(-1) = [[1, 1/alpha], [1, 1/beta]]."""
    ctx = params.ctx
    al, be = params.alpha, params.beta
    if (al - be).is_zero():
        raise DegenerateEigenvalues("alpha = beta at working precision")
    one = IwaSeries.const(ctx, 1, 1)
    ai, ea = inv_scaled(al)
    bi, eb = inv_scaled(be)
    rows = [[one, IwaSeries.const(ctx, ai, 1).times_p(-ea).normalize()],
            [one, IwaSeries.const(ctx, bi, 1).times_p(-eb).normalize()]]
    return LogMatrix(rows)


def _q_power_y(p, e, m):
    """q^e mod m in Y = 1+pi.  There q = phi(pi)/pi = (Y^p - 1)/(Y - 1) is
    1 + Y + ... + Y^(p-1), so q^e is an int vector of degree e (p-1)."""
    qe = [1]
    for _ in range(e):
        qe = _poly.vec_mul(qe, [1] * p, m, len(qe) + p - 1)
    return qe


def _principal_coset(p, lvl):
    """The units = 1 mod p, mod p^(lvl+1), as (1+p)^e for e < p^lvl."""
    q = p ** (lvl + 1)
    # (1+p)^e for e < p^lvl, p times as many per round: e = j p^i + e'
    upow = [1]
    for i in range(lvl):
        steps = [pow(1 + p, j * p ** i, q) for j in range(p)]
        upow = [x * g % q for g in steps for x in upow]
    return upow


def _check_support(terms, p, m):
    """Raise NotInImage at the first Y-exponent of the (exponent,
    coefficient) terms with a coefficient nonzero mod m off the principal
    coset: exponents = 0 mod p (psi = 0) first, then 2, ..., p-1, each
    class in increasing order."""
    bad = [e for e, c in terms if e % p != 1 and c % m]
    if bad:
        e = min(bad, key=lambda e: (e % p, e))
        raise NotInImage("%s at (1+pi)^%d" % (
            "mass outside the principal coset" if e % p else
            "psi-component survives", e))


def mellin_read(ctx, corners, lvl, wp, scale, growth):
    """The Mellin inverses of the polynomials in Y whose (exponent,
    coefficient) terms mod p^wp, exponents below p^(lvl+1), are `corners`,
    projected to the trivial Delta-component: the entries
    sum_e c_(coset[e]) (1+X)^e over p^scale, normalized, for the principal
    coset `_principal_coset(p, lvl)`, shifted to the X basis together.

    The power p^s that `IwaSeries.normalize` would strip (`strip_exp`) is
    read off one gcd of the terms: s = scale when v_p(gcd) >= ctx.prec,
    else min(scale, v_p(gcd)).  When p^s divides the terms, they are
    shifted over p^s mod p^(wp-s), normalized as they stand.  Otherwise the
    entry vanishes mod p^ctx.prec < p^scale but not mod p^s: it is shifted
    at wp and `normalize` drops nonzero digits after it, the unsound strip
    of ROADMAP item 2.  The shift is Z-linear and each modulus divides the
    largest, so one call shifts all at the largest.
    """
    p = ctx.p
    m = p ** wp
    where = {y: e for e, y in enumerate(_principal_coset(p, lvl))}
    # per corner: s, the strip or not, its modulus's exponent, its terms
    plans = []
    for terms in corners:
        _check_support(terms, p, m)
        vec = sorted([(where[y], r) for y, c in terms if y % p == 1 and (r := c % m)])
        g = gcd(*[c for _, c in vec])
        v = _poly._vp(g, p, ctx.prec)
        s = scale if v >= ctx.prec else min(scale, v)
        pk = p ** s
        if g % pk:
            plans.append((0, True, wp, vec))
        else:
            plans.append((s, False, wp - s, [(e, c // pk) for e, c in vec]))
    top = max(e for _, _, e, _ in plans)
    out = []
    for (s, strip, e, _), vec in zip(plans, _poly.taylor_shift_terms(
            [vec for *_, vec in plans], 1, 1, p ** top, len(where))):
        if e < top:
            pe = p ** e
            vec = [c % pe for c in vec]
        entry = IwaSeries._reduced(ctx, vec, None, e, len(where), scale - s, growth)
        out.append(entry.normalize() if strip else entry)
    return out


MAX_REP_DEGREE = 4096


def log_matrix_ap0(params, n):
    """The level-n logarithmic matrix in a_p = 0 mode.

    Internally works at precision wp = params.ctx.prec + (k+1)(n+1) so that
    the final entries are good to roughly the context's precision after the
    tracked denominators are stripped.  The representation needs p^(n+2) stored
    coefficients, which caps the supported level per prime.

    P'^(-1) = [[0, 1], [c, 0]] with c = -eps q^(k+1) is built in Y = 1+pi
    (`_q_power_y`) at the working precision wp.  The matrix is antidiagonal:
    its corners are the even and the odd products of the c_i = phi^i(c),
    0 < i <= n, as terms, scaled by the closed form of A~^(n+1) (module
    docstring), and both corners take one `mellin_read`.
    """
    if params.mode != AP_ZERO:
        raise WrongMode("log_matrix_ap0 requires a_p = 0 mode")
    ctx = params.ctx
    k = params.k
    p = ctx.p
    if p ** (n + 2) > MAX_REP_DEGREE:
        raise InsufficientDegree(
            "level %d needs %d coefficients (budget %d)"
            % (n, p ** (n + 2), MAX_REP_DEGREE))
    scale = (k + 1) * (n + 1)
    wp = ctx.prec + scale
    m = p ** wp
    rep = n + 1
    cap = p ** (rep + 1)
    c = _poly._terms(_poly.vec_scale(_q_power_y(p, k + 1, m), -params.eps.a, m), m)
    # par = [E, O]: the products of c_i = phi^i(c) over even and odd
    # 0 < i <= n, as nonzero terms; phi is Y -> Y^p
    par = [[(0, 1)], [(0, 1)]]
    for i in range(1, n + 1):
        c = [(j * p, x) for j, x in c]
        par[i % 2] = _poly.sparse_mul(par[i % 2], c, m)
    # A~^2 = t, so A~^(n+1) is t^((n+1)/2) for odd n and t^(n/2) A~ for even n
    einv = pow(params.eps.a, -1, m)
    pk = p ** (k + 1)
    h = pow(-pk * einv, (n + 1) // 2, m)
    scalars = (h, h) if n % 2 else (-h * einv, h * pk)
    growth = Fraction(k + 1, 2)
    # the factor 1+pi = Y raises each exponent by one; truncation mod pi^cap
    # is a ring map, applied only here and where an exponent reaches cap
    corners = []
    for terms, sc in zip(par, scalars):
        terms = [(j + 1, r) for j, x in terms if (r := x * sc % m)]
        if terms and max(terms)[0] >= cap:
            ys = dict(terms)
            ys = [ys.get(j, 0) for j in range(max(ys) + 1)]
            terms = _poly._terms(_poly.onepx_rem(ys, cap, p, wp), m)
        corners.append(terms)
    up, low = mellin_read(ctx, corners, rep, wp, scale, growth)
    zero = [IwaSeries._reduced(ctx, [0] * p ** rep, None, ctx.prec, p ** rep, 0,
                               growth) for _ in range(2)]
    return LogMatrix([[zero[0], up], [low, zero[1]]], level=n,
                     provenance="ap-zero level %d" % n)


def window_ideal(mat):
    """The representation-window polynomial omega_(n+1) of a level-n matrix
    (level 0 when it has none), in a window of p^(n+1) + 2 coefficients."""
    ctx = mat.entry(0, 0).ctx
    lvl = (mat.level or 0) + 1
    return omega(ctx, lvl, ctx.p ** lvl + 2)


def _scaled(terms, m, cap):
    """sum c v mod m over the (c, v) terms, v of length at least cap, as a
    vector of length cap; a term whose c vanishes mod m costs no pass, and
    None stands for the zero vector when no term is left."""
    terms = [(c, v if len(v) == cap else v[:cap]) for c, v in terms if c % m]
    if not terms:
        return None
    (c, v), *rest = terms
    if not rest:
        return [c * x % m for x in v]
    acc = [c * x for x in v]
    for c, v in rest:
        acc = [y + c * x for y, x in zip(acc, v)]
    return [y % m for y in acc]


def _sum_and_difference(x, y, m):
    """(x + y, x - y) mod m for vectors x and y, None standing for zero:
    one pass when one of them is zero, none when y is."""
    if y is None:
        return x, x
    if x is None:
        return y, [m - v if v else 0 for v in y]
    return [(u + v) % m for u, v in zip(x, y)], [(u - v) % m for u, v in zip(x, y)]


def _qinv_column(c, f0, f1):
    """Rows 0 and 1 of Q_g^(-1) (f0, f1) for Q_g^(-1) = [[1, c], [1, -c]],
    with the fields `LogMatrix.__matmul__` gives once Q_g^(-1) is widened to
    the column's window: the sum and the difference of P = f0 and Q = c f1.

    A zero entry adds only its precision, denominator and growth.  When Q
    is zero, row 1 is row 0's series itself: nothing mutates a stored
    vector.
    """
    ctx = c.ctx
    wsq = ctx.wsq()
    if (f0.b or f1.b) and wsq is None:
        raise ValueError("extension coefficients without an extension")
    # the terms 1 f0 and c f1, over p^d0 and p^d1, are raised to p^d as in
    # `IwaSeries._aligned`: scaled by p^(d - dt), their precisions up by
    # d - dt, at most the context's, which bounds those of 1 and c
    d0, d1 = f0.denom_exp, c.denom_exp + f1.denom_exp
    d = max(d0, d1)
    prec = min(ctx.prec, f0.prec + d - d0, c.prec + d - d1, f1.prec + d - d1)
    cap = min(f0.deg_cap, f1.deg_cap)
    m = ctx.p ** prec
    # P = s0 f0 and Q = (ca + cb w)(f1.a + f1.b w), as base and w-parts
    pa = pb = qa = qb = None
    if not f0.is_zero():
        s0 = ctx.p ** (d - d0)
        pa = _scaled([(s0, f0.a)], m, cap)
        pb = _scaled([(s0, f0.b)], m, cap) if f0.b else None
    if not f1.is_zero():
        s1 = ctx.p ** (d - d1)
        ca, cb = c.a[0] * s1, (c.b[0] * s1 if c.b else 0)
        if f1.b:
            qa = _scaled([(ca, f1.a), (cb * wsq, f1.b)], m, cap)
            qb = _scaled([(cb, f1.a), (ca, f1.b)], m, cap)
        else:
            qa = _scaled([(ca, f1.a)], m, cap)
            qb = _scaled([(cb, f1.a)], m, cap)
    growth = max(f0.growth, f1.growth)
    a0, a1 = _sum_and_difference(pa, qa, m)
    b0, b1 = _sum_and_difference(pb, qb, m)
    row0 = IwaSeries._reduced(ctx, a0 or [0] * cap, b0, prec, cap, d, growth)
    if qa is None and qb is None:
        return row0, row0
    return row0, IwaSeries._reduced(ctx, a1 or [0] * cap, b1, prec, cap, d, growth)


def qinv_times(params, mat):
    """Q_g^(-1) * M for a 2x2 logarithmic matrix M, in a_p = 0 mode.

    There beta = -alpha, so Q_g^(-1) = [[1, c], [1, -c]] with c = 1/alpha,
    the one inverse taken, and column j of the product is P + Q over
    P - Q for P = M[0][j] and Q = c M[1][j] (`_qinv_column`): one pass
    scales each nonzero part, and one more takes their sum and difference,
    or the negation of Q where P is zero.  Each column of the a_p = 0
    matrix has one zero entry, so three passes build the product, and the
    rows of its column 1 are one series.
    """
    if params.mode != AP_ZERO:
        raise WrongMode("qinv_times requires a_p = 0 mode")
    assert mat.dim == 2
    al = params.alpha
    if (al - params.beta).is_zero():
        raise DegenerateEigenvalues("alpha = beta at working precision")
    ai, ea = inv_scaled(al)
    c = IwaSeries.const(params.ctx, ai, 1).times_p(-ea).normalize()
    (e00, e01), (e10, e11) = mat.entries
    (r00, r10), (r01, r11) = _qinv_column(c, e00, e10), _qinv_column(c, e01, e11)
    return LogMatrix([[r00, r01], [r10, r11]], mat.level,
                     "Qg^-1 * " + (mat.provenance or "M"))


def semi_ordinary_block(mg, k_f, u_f, lower_left):
    """Assemble [[u_f M, 0], [*, l_f Tw^(k_f+1) M]] with l_f = log_tw/delta,
    log_tw truncated at M's level (2 for a matrix without one).

    The twisted-log factor divides exactly: log_{p,m} = delta_m * (plus and
    minus half-log product), and log_tw stays below the top of its window,
    so the quotient is the fast path of solve_series_div.
    """
    if mg.dim != 2:
        raise ValueError("expected a 2x2 block")
    ctx = mg.entry(0, 0).ctx
    cap = max(e.deg_cap for row in mg.entries for e in row)
    n_trunc = mg.level if mg.level is not None else 2
    need = (k_f + 1) * ctx.p ** n_trunc + 2
    cap = max(cap, need)
    lt = log_tw(ctx, k_f + 1, n_trunc, cap)
    dl = delta(ctx, k_f + 1, cap)
    ell = solve_series_div(lt, dl)
    if isinstance(u_f, (int, PadicElt)):
        u_f = IwaSeries.const(ctx, u_f, cap)
    z = IwaSeries.zero(ctx, cap)
    top = [[u_f * mg.entry(0, 0), u_f * mg.entry(0, 1), z, z],
           [u_f * mg.entry(1, 0), u_f * mg.entry(1, 1), z, z]]
    tw = [[ell * twist(mg.entry(i, j), k_f + 1) for j in range(2)] for i in range(2)]
    bot = [[lower_left[0][0], lower_left[0][1], tw[0][0], tw[0][1]],
           [lower_left[1][0], lower_left[1][1], tw[1][0], tw[1][1]]]
    return LogMatrix(top + bot, mg.level, "semi-ordinary block")


def q_fg_block(qg, alpha_f, beta_f):
    """Q_{f,g} = [[Q_g, 0], [c Q_g, -c Q_g]] with c = alpha_f beta_f/(alpha_f - beta_f)."""
    diff = alpha_f - beta_f
    if diff.is_zero():
        raise DegenerateEigenvalues("alpha_f = beta_f at working precision")
    dinv, e = inv_scaled(diff)
    cnum = alpha_f * beta_f * dinv
    ctx = qg.entry(0, 0).ctx
    z = IwaSeries.zero(ctx, qg.entry(0, 0).deg_cap)
    rows = []
    for i in range(2):
        rows.append([qg.entry(i, 0), qg.entry(i, 1), z, z])
    for i in range(2):
        r = [(qg.entry(i, j) * cnum).times_p(-e).normalize() for j in range(2)]
        rows.append([r[0], r[1], (-r[0]).normalize(), (-r[1]).normalize()])
    return LogMatrix(rows, qg.level, "Q_fg block")


def q_fg_inv_block(params_g, alpha_f, beta_f):
    """Q_{f,g}^(-1) = [[Qg^-1, 0], [Qg^-1, -Qg^-1/c]] from the block triangular shape."""
    diff = alpha_f - beta_f
    if diff.is_zero():
        raise DegenerateEigenvalues("alpha_f = beta_f at working precision")
    qinv = q_matrix_inv(params_g)
    ab = alpha_f * beta_f
    abinv, e_ab = inv_scaled(ab)
    cinv_num = diff * abinv  # 1/c = (alpha - beta)/(alpha beta)
    ctx = params_g.ctx
    z = IwaSeries.zero(ctx, 1)
    rows = []
    for i in range(2):
        rows.append([qinv.entry(i, 0), qinv.entry(i, 1), z, z])
    for i in range(2):
        low = [(-(qinv.entry(i, j) * cinv_num).times_p(-e_ab)).normalize()
               for j in range(2)]
        rows.append([qinv.entry(i, 0), qinv.entry(i, 1), low[0], low[1]])
    return LogMatrix(rows, None, "Q_fg^-1 block")
