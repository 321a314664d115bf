"""Logarithmic matrices from Frobenius data on the pi-adic coefficient ring.

The a_p = 0 case is built from first principles: the crystalline Frobenius
matrix has the explicit antidiagonal shape [[0, -1/(eps p^(k+1))], [1, 0]] and
its Wach-ring lift replaces p^(k+1) by q^(k+1).  The level-n logarithmic
matrix is the finite-level Mellin inverse of

    (1+pi) * A^(n+1) * phi^n(P^(-1)) ... phi(P^(-1)),

computed integrally at boosted precision (the A-power denominators are
tracked as one explicit p-power) and projected to the trivial
Delta-isotypic component.

The whole path runs on exact int vectors in the variable Y = 1+pi.  In Y,
q = phi(pi)/pi = (Y^p - 1)/(Y - 1) = 1 + Y + ... + Y^(p-1), so the one
nonconstant entry c = -eps q^(k+1) of P^(-1) is born in Y as an int vector
of degree (k+1)(p-1).  phi is then Y -> Y^p, the products are untruncated,
and 1+pi is a shift.  Truncation mod pi^cap is reduction mod (Y-1)^cap, a
ring map, so it is applied once per output entry, and only when the entry's
degree reaches cap (for a_p = 0, when k >= p+1): one division by
(Y-1)^cap, `_poly.onepx_rem`.

The Mellin inverse and the Delta-projection are one pass over the
Y-coefficients, `mellin_read`, the package's one Mellin read.  Positions
divisible by p must vanish (psi = 0); the others are the group-ring
coefficients, and the product (1+pi) phi(...) is supported on the
Y-exponents = 1 mod p, the principal coset (1+p)^e of the units mod
p^(n+2), and mass anywhere else raises (`_check_support`).  So the
trivial-character projection [(1+p)^e] -> (1+X)^e reads that coset
straight into the (1+X)-basis vector of the entry, and one basis change
per nonzero entry takes it to the X basis (`_mellin_entry`).  That
change is unipotent over Z, so it keeps the p-content that `normalize`
would strip afterwards: the content is read off the coset vector and
divided out first, and the shift runs on the quotient at the lower
precision, already normalized.  The coset vector is mostly zeros (25 of
243 coefficients at p = 3, n = 4, k = 1), which the shift's exact low
levels skip.

The product has a closed form.  Every factor phi^i(P^(-1)) =
[[0, 1], [c_i, 0]], with c_i = phi^i(c), is antidiagonal, so
phi^n(P^(-1)) ... phi(P^(-1)) is [[0, E], [O, 0]] for odd n and
[[O, 0], [0, E]] for even n, where E and O are the products of the c_i
over the even and the odd 0 < i <= n.  The lift A~ = p^(k+1) A' =
[[0, -1/eps], [p^(k+1), 0]] squares to the scalar t = -p^(k+1)/eps, so
the level-n matrix is antidiagonal: its (0,1) corner is t^((n+1)/2) E and
its (1,0) corner t^((n+1)/2) O for odd n, and t^(n/2) (-E/eps) and
t^(n/2) p^(k+1) O for even n.  The (1,0) corner is the odd (minus) product
and the (0,1) corner the even (plus) one, the pairing of the half-logs.
The diagonal is exactly zero, and only the two corners take a Mellin read
and a Delta-projection.  Every entry of P^(-1) is known at the working
precision, so the output is the same as the dense computation's.  Each
phi^i(c) has at most (k+1)(p-1)+1 nonzeros, p^i apart, so E and O are one
chain of products over nonzero pairs (`_poly.sparse_mul`).

Q_g^(-1) is constant, so Q_g^(-1) M (`qinv_times`) is one pass per entry
that scales and adds the int vectors of a column of M; the zeros of M add
only their precision, denominator and growth.

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
from padiclog.padic import (PadicElt, PadicError, PrimeCtx, inv_scaled, is_qr,
                            sqrt)


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
        elif not is_qr(-eps, p):
            ctx = PrimeCtx(p, prec, ("unramified", -eps))
        alpha = sqrt(ctx.from_int(-eps * p ** (k + 1)))
        epse = ctx.from_int(eps)
        return cls(ctx, k, epse, alpha, -alpha, AP_ZERO)

    def __repr__(self):
        return "CrystalParams(p=%d, k=%d, mode=%s)" % (self.ctx.p, self.k, self.mode)


class LogMatrix:
    """Square matrix of IwaSeries with a congruence-level tag.

    rep_level records the group-ring level of the representation: entries
    are only meaningful modulo omega_(rep_level), and congruence statements
    about them must include that window ideal.
    """

    def __init__(self, entries, level=None, provenance="", rep_level=None):
        self.entries = entries
        self.dim = len(entries)
        self.level = level
        self.provenance = provenance
        self.rep_level = rep_level

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

    def __mul__(self, scalar):
        return self.map(lambda e: e * scalar)

    def __add__(self, other):
        return LogMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)],
                         self.level, self.provenance)

    def __sub__(self, other):
        return LogMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)],
                         self.level, self.provenance)

    def __eq__(self, other):
        return all(a == b for r1, r2 in zip(self.entries, other.entries)
                   for a, b in zip(r1, r2))

    def det(self):
        if self.dim != 2:
            raise ValueError("determinant implemented for 2x2 only")
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def to_json(self):
        return {"dim": self.dim, "level": self.level,
                "provenance": self.provenance,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

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


def _check_support(ys, p, m):
    """Raise NotInImage at the first Y-coefficient nonzero mod m off the
    principal coset: exponents = 0 mod p (psi = 0) first, then 2, ..., p-1."""
    for r in (0, *range(2, p)):
        if any(ys[r::p]):
            what = ("mass outside the principal coset" if r else
                    "psi-component survives")
            for j in range(r, len(ys), p):
                if ys[j] % m:
                    raise NotInImage("%s at (1+pi)^%d" % (what, j))


def _phi_y(v, p):
    """phi on Y-coefficients: Y -> Y^p moves coefficient j to j p."""
    out = [0] * ((len(v) - 1) * p + 1)
    out[::p] = v
    return out


def _mellin_entry(ctx, vals, wp, scale, growth):
    """The normalized entry whose (1+X)-basis vector is vals mod p^wp, with
    denominator p^scale.

    The basis change X -> X+1 is unipotent over Z, so it keeps the content
    of the vector: the power p^s that `IwaSeries.normalize` would strip
    from the X-basis entry is read off vals (`strip_exp`).  When p^s divides
    vals at wp, the shift runs on vals / p^s mod p^(wp-s) and its output is
    the normalized entry as it stands.  Otherwise vals vanish mod
    p^ctx.prec, with ctx.prec < scale, but not mod p^s: the shift runs at wp
    and `normalize` floor-divides by p^s after it, dropping nonzero digits.
    That is the unsound strip of ROADMAP item 1; the branch goes with it.
    """
    p, size = ctx.p, len(vals)
    s = IwaSeries._reduced(ctx, vals, None, wp, size, scale, growth).strip_exp()
    pk = p ** s
    g = gcd(*vals)
    if g % pk:
        vec = _poly.from_onepx_basis(vals, p ** wp, size)
        return IwaSeries._reduced(ctx, vec, None, wp, size, scale,
                                  growth).normalize()
    # a zero vector is its own shift
    vec = _poly.from_onepx_basis([c // pk for c in vals], p ** (wp - s),
                                 size) if g else vals
    return IwaSeries._reduced(ctx, vec, None, wp - s, size, scale - s, growth)


def mellin_read(ctx, ys, coset, wp, scale, growth):
    """The Mellin inverse of the Y-coefficients ys mod p^wp, projected to the
    trivial Delta-component: the entry sum_e ys[coset[e]] (1+X)^e over
    p^scale, normalized, for the principal coset `_principal_coset`."""
    _check_support(ys, ctx.p, ctx.p ** wp)
    return _mellin_entry(ctx, [ys[a] for a in coset], wp, scale, growth)


MAX_REP_DEGREE = 4096


def log_matrix_ap0(params, n):
    """The level-n logarithmic matrix in a_p = 0 mode.

    Internally works at precision wp = params.ctx.prec + (k+1)(n+1) so that
    the final entries are good to roughly the context's precision after the
    tracked denominators are stripped.  The representation needs p^(n+2) stored
    coefficients, which caps the supported level per prime.

    P'^(-1) = [[0, 1], [c, 0]] with c = -eps q^(k+1) is built in Y = 1+pi,
    where c is an exact int vector (`_q_power_y`) at the working precision
    wp.  The matrix is antidiagonal: its corners are the even and the odd
    products of the c_i = phi^i(c), 0 < i <= n, scaled by the closed form of
    A~^(n+1) (module docstring), and each corner takes one `mellin_read`.
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
    c = _poly.vec_scale(_q_power_y(p, k + 1, m), -params.eps.a, m)
    # par = [E, O]: the products of c_i = phi^i(c) over even and odd 0 < i <= n
    par = [[1], [1]]
    for i in range(1, n + 1):
        c = _phi_y(c, p)
        par[i % 2] = _poly.sparse_mul(par[i % 2], c, m)
    # A~^2 = t, so A~^(n+1) is t^((n+1)/2) for odd n and t^(n/2) A~ for even n
    einv = pow(params.eps.a, -1, m)
    pk = p ** (k + 1)
    h = pow(-pk * einv, (n + 1) // 2, m)
    scalars = (h, h) if n % 2 else (-h * einv, h * pk)
    growth = Fraction(k + 1, 2)
    coset = _principal_coset(p, rep)
    out = [[None, None], [None, None]]
    for i in range(2):
        # the factor 1+pi = Y is a shift; truncation mod pi^cap is a ring
        # map, so the exact product is reduced only here
        ys = _poly.onepx_rem([0] + _poly.vec_scale(par[i], scalars[i], m),
                             cap, p, wp)
        out[i][1 - i] = mellin_read(ctx, ys, coset, wp, scale, growth)
        out[i][i] = _mellin_entry(ctx, [0] * p ** rep, wp, scale, growth)
    return LogMatrix(out, level=n, provenance="ap-zero level %d" % n,
                     rep_level=rep)


def window_ideal(mat):
    """The representation-window polynomial omega_(rep_level) of the matrix,
    in a window of p^rep_level + 2 coefficients."""
    ctx = mat.entry(0, 0).ctx
    lvl = mat.rep_level if mat.rep_level is not None else (mat.level or 0) + 1
    return omega(ctx, lvl, ctx.p ** lvl + 2)


def _scaled_column(row, col):
    """row[0] col[0] + row[1] col[1] for constant series row[t] and series
    col[t], with the fields `LogMatrix.__matmul__` gives once row is widened
    to col's window: one pass scales and adds the int vectors of col.

    A zero entry of col adds only its precision, denominator and growth.
    As in `_aligned`, a term whose denominator is raised by s is scaled by
    p^s, and its precision rises by s, up to the context's.
    """
    ctx = row[0].ctx
    wsq = ctx.wsq()
    denoms = [c.denom_exp + f.denom_exp for c, f in zip(row, col)]
    d = max(denoms)
    precs = [min(c.prec, f.prec) if d == dt else
             min(c.prec + d - dt, f.prec + d - dt, ctx.prec)
             for c, f, dt in zip(row, col, denoms)]
    prec = min(precs)
    cap = min(f.deg_cap for f in col)
    m = ctx.p ** prec
    # (scalar, vector) terms of the base part and of the w-part
    pa, pb = [], []
    for c, f, dt in zip(row, col, denoms):
        if f.is_zero():
            continue
        if f.b and wsq is None:
            raise ValueError("extension coefficients without an extension")
        s = ctx.p ** (d - dt)
        ca, cb = c.a[0] * s, (c.b[0] * s if c.b else 0)
        pa.append((ca, f.a[:cap]))
        if cb:
            pb.append((cb, f.a[:cap]))
        if f.b:
            pb.append((ca, f.b[:cap]))
            pa.append((cb * wsq, f.b[:cap]))
    a = _lin_comb(pa, m, cap)
    b = _lin_comb(pb, m, cap) if pb else None
    return IwaSeries._reduced(ctx, a, b, prec, cap, d,
                              max(c.growth + f.growth for c, f in zip(row, col)))


def _lin_comb(terms, m, cap):
    """sum c v mod m over the (c, v) terms, as a vector of length cap."""
    if not terms:
        return [0] * cap
    (c, v), *rest = terms
    if not rest:
        return [c * x % m for x in v]
    acc = [c * x for x in v]
    for c, v in rest:
        acc = [y + c * x for y, x in zip(acc, v)]
    return [y % m for y in acc]


def qinv_times(params, mat):
    """Q_g^(-1) * M for a 2x2 logarithmic matrix M.

    Q_g^(-1) is constant, so each entry of the product is one pass over a
    column of M (`_scaled_column`), with the fields of
    `q_matrix_inv(params)` widened to M's window, times M.
    """
    assert mat.dim == 2
    qi = q_matrix_inv(params).entries
    cols = [[mat.entries[0][j], mat.entries[1][j]] for j in range(2)]
    out = [[_scaled_column(qi[i], cols[j]) for j in range(2)] for i in range(2)]
    return LogMatrix(out, mat.level, "Qg^-1 * " + (mat.provenance or "M"),
                     mat.rep_level)


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


def combined(qfg_inv, mfg):
    """Q_{f,g}^(-1) * M'_{f,g}; block upper-triangular with upper-left u_f Qg^-1 M."""
    out = qfg_inv @ mfg
    out.provenance = "Qfg^-1 * Mfg"
    return out
