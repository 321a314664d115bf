"""Logarithmic matrices from Frobenius data on the pi-adic coefficient ring.

The a_p = 0 case is built from first principles: the crystalline Frobenius
matrix has the explicit antidiagonal shape [[0, -1/(eps p^(k+1))], [1, 0]] and
its Wach-ring lift replaces p^(k+1) by q^(k+1).  The level-n logarithmic
matrix is the finite-level Mellin inverse of

    (1+pi) * A^(n+1) * phi^n(P^(-1)) ... phi(P^(-1)),

computed integrally at boosted precision (the A-power denominators are
tracked as one explicit p-power) and projected to a Delta-isotypic component.

The whole path runs on exact int vectors in the variable Y = 1+pi.  In Y,
q = phi(pi)/pi = (Y^p - 1)/(Y - 1) = 1 + Y + ... + Y^(p-1), so the one
nonconstant entry -eps q^(k+1) of P^(-1) is born in Y as an int vector of
degree (k+1)(p-1), and A enters through its int entries (`_aprime_ap0`).
phi is then Y -> Y^p, the 2x2 products are untruncated, and 1+pi is a
shift.  Truncation mod pi^cap is reduction mod (Y-1)^cap, a ring map, so it
is applied once per output entry, and only when the entry's degree reaches
cap (for a_p = 0, when k >= p+1): one division by (Y-1)^cap,
`_poly.onepx_rem`.

The Mellin inverse and the Delta-projection are one pass over the
Y-coefficients.  Positions divisible by p must vanish (psi = 0,
`cycser.check_psi_zero`); the others are the group-ring coefficients, and
the units mod p^(n+2) fall into p-1 cosets t (1+p)^e of the Teichmuller
representatives t, so [t (1+p)^e] -> theta(t) (1+X)^e sums each coset
straight into the (1+X)-basis vector of the entry (`_project`).  One basis
change per nonzero entry takes it to the X basis.

The product carries only the nonzero entries.  For a_p = 0 every factor
phi^i(P^(-1)) is antidiagonal with the constant 1 in one corner, so the
product and A^(n+1) are diagonal or antidiagonal: half of the entries are
structural zeros.  They are marked None once and skip every term, Mellin
read and Delta-projection they would feed.  Every entry of P^(-1) is known
at the working precision, so a skipped zero lowers no precision and the
output is the same as the dense computation's.

Q_g^(-1) is constant, so Q_g^(-1) M (`qinv_times`) is one pass per entry
that scales and adds the int vectors of a column of M; the zeros of M add
only their precision, denominator and growth.

The general Fontaine-Laffaille-style case has no explicit Frobenius lift
formula here, so only a_p = 0 builds a logarithmic matrix; the
distinct-eigenvalue mode (`CrystalParams.fl_supplied`) carries an ordinary
form's eigenvalues for `q_matrix(params, "f")`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from padiclog import _poly
from padiclog.cycser import check_psi_zero
from padiclog.iwadist import (InsufficientDegree, IwaSeries, delta,
                              divide_exact, log_tw, twist)
from padiclog.padic import (PadicElt, PadicError, PrimeCtx, inv_scaled, is_qr,
                            sqrt, teichmuller)


class WrongMode(PadicError):
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


def q_matrix(params, which="g"):
    """The eigenvector change-of-basis matrix Q_f or Q_g (constant entries)."""
    ctx = params.ctx
    al, be = params.alpha, params.beta
    diff = al - be
    if diff.is_zero():
        raise DegenerateEigenvalues("alpha = beta at working precision")
    dinv, e = inv_scaled(diff)
    ab = al * be
    if which == "f":
        rows = [[diff * dinv, ctx.zero()], [ab * dinv, -ab * dinv]]
    elif which == "g":
        rows = [[al * dinv, -be * dinv], [-ab * dinv, ab * dinv]]
    else:
        raise ValueError("which must be 'f' or 'g'")
    denoms = [[e, e], [e, e]]
    m = const_matrix(ctx, rows, 1, denoms)
    return m.map(lambda s: s.normalize())


def q_matrix_inv(params, which="g"):
    """Exact inverse of q_matrix: Q_g^(-1) = [[1, 1/alpha], [1, 1/beta]] and
    Q_f^(-1) = [[1, 0], [1, -(alpha-beta)/(alpha beta)]]."""
    ctx = params.ctx
    al, be = params.alpha, params.beta
    if (al - be).is_zero():
        raise DegenerateEigenvalues("alpha = beta at working precision")
    one = IwaSeries.const(ctx, 1, 1)
    if which == "g":
        ai, ea = inv_scaled(al)
        bi, eb = inv_scaled(be)
        rows = [[one, IwaSeries.const(ctx, ai, 1).times_p(-ea).normalize()],
                [one, IwaSeries.const(ctx, bi, 1).times_p(-eb).normalize()]]
    elif which == "f":
        abi, eab = inv_scaled(al * be)
        ent = IwaSeries.const(ctx, -(al - be) * abi, 1).times_p(-eab).normalize()
        rows = [[one, IwaSeries.zero(ctx, 1)], [one, ent]]
    else:
        raise ValueError("which must be 'f' or 'g'")
    return LogMatrix(rows)


def _aprime_ap0(params, m):
    """The int entries of p^(k+1) A' mod m, for A' = [[0, -1/(eps p^(k+1))],
    [1, 0]]: [[0, -1/eps], [p^(k+1), 0]], 1/eps taken mod m."""
    return [[0, -pow(params.eps.a, -1, m) % m],
            [params.ctx.p ** (params.k + 1) % m, 0]]


def _q_power_y(p, e, m):
    """q^e mod m in Y = 1+pi.  There q = phi(pi)/pi = (Y^p - 1)/(Y - 1) is
    1 + Y + ... + Y^(p-1), so q^e is an int vector of degree e (p-1)."""
    qe = [1]
    for _ in range(e):
        qe = _poly.vec_mul(qe, [1] * p, m, len(qe) + p - 1)
    return qe


def _cosets(ctx, lvl, theta_index, m):
    """The units mod p^(lvl+1) as p-1 cosets (w, row) of the Teichmuller
    representatives t: row lists t (1+p)^e mod p^(lvl+1) for e < p^lvl, and
    w is theta(t) mod m, 1 for the trivial character."""
    p = ctx.p
    q = p ** (lvl + 1)
    # (1+p)^e for e < p^lvl, p times as many per round: e = j p^i + e'
    upow = [1]
    for i in range(lvl):
        steps = [pow(1 + p, j * p ** i, q) for j in range(p)]
        upow = [x * g % q for g in steps for x in upow]
    out = []
    for r in range(1, p):
        t = pow(r, p ** lvl, q)
        w = 1
        if theta_index % (p - 1):
            w = pow(teichmuller(ctx, r).a, theta_index, m)
        out.append((w, [t * x % q for x in upow]))
    return out


def _project(ys, cosets, m):
    """The Delta-projection of sum_a ys[a] [a] mod m, a over the units mod
    p^(lvl+1), as the coefficients of an IwaSeries: [t (1+p)^e] goes to
    theta(t) (1+X)^e, so each coset is one pass over ys."""
    bs = None
    for w, row in cosets:
        col = [ys[a] for a in row] if w == 1 else [w * ys[a] for a in row]
        bs = col if bs is None else list(map(add, bs, col))
    return _poly.from_onepx_basis(bs, m, len(bs))


def _dot(pairs, m):
    """Sum mod m of the untruncated products x * y of int vectors over the
    pairs, where None is a zero factor: a term with a zero factor is
    skipped, and a sum with no term left is None."""
    acc = None
    for x, y in pairs:
        if x is not None and y is not None:
            t = _poly.vec_mul(x, y, m, len(x) + len(y) - 1)
            acc = t if acc is None else _poly.vec_add(acc, t, m)
    return acc


def _phi_y(v, p):
    """phi on Y-coefficients: Y -> Y^p moves coefficient j to j p."""
    out = [0] * ((len(v) - 1) * p + 1)
    out[::p] = v
    return out


MAX_REP_DEGREE = 4096


def log_matrix_ap0(params, n, theta_index=0, prec=None):
    """The level-n logarithmic matrix in a_p = 0 mode.

    Internally works at precision prec + (k+1)(n+1) so that the final
    entries are good to roughly the requested precision after the tracked
    denominators are stripped.  The representation needs p^(n+2) stored
    coefficients, which caps the supported level per prime.

    P'^(-1) = [[0, 1], [-eps q^(k+1), 0]] is built in Y = 1+pi, where its
    one nonconstant entry is an exact int vector (`_q_power_y`).  All of its
    entries are taken at the working precision, so every output entry is
    stored at it before `normalize` strips its denominator.
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
    if prec is None:
        prec = ctx.prec
    scale = (k + 1) * (n + 1)
    wp = prec + scale
    ctx_work = PrimeCtx(p, wp, ctx.ext)
    m = ctx_work.modulus
    rep = n + 1
    cap = p ** (rep + 1)
    c = _poly.vec_scale(_q_power_y(p, k + 1, m), -params.eps.a, m)
    cur = [[None, [1]], [c, None]]
    # prod = phi^n(P~) * phi^(n-1)(P~) * ... * phi(P~)
    prod = None
    for _ in range(n):
        cur = [[None if e is None else _phi_y(e, p) for e in row] for row in cur]
        if prod is None:
            prod = cur
        else:
            prod = [[_dot(((cur[i][t], prod[t][j]) for t in range(2)), m)
                     for j in range(2)] for i in range(2)]
    if prod is None:
        prod = [[[1], None], [None, [1]]]
    # A~^(n+1) acting on the left
    araw = _aprime_ap0(params, m)
    an = [[1, 0], [0, 1]]
    for _ in range(n + 1):
        an = [[(an[i][0] * araw[0][j] + an[i][1] * araw[1][j]) % m
               for j in range(2)] for i in range(2)]
    an = [[[a] if a else None for a in row] for row in an]
    growth = Fraction(k + 1, 2)
    cosets = None
    out = []
    for i in range(2):
        orow = []
        for j in range(2):
            s = _dot(((prod[t][j], an[i][t]) for t in range(2)), m)
            if s is None:
                vec = [0] * p ** rep
            else:
                # the factor 1+pi = Y is a shift; truncation mod pi^cap is a
                # ring map, so the exact product is reduced only here
                ys = _poly.onepx_rem([0] + s, cap, p, wp)
                # the Mellin inverse reads the Y-coefficients: psi = 0 at the
                # positions divisible by p, the group ring at the others
                check_psi_zero(ys, p, m)
                # theta weights are Teichmuller lifts at the working precision
                cosets = cosets or _cosets(ctx_work, rep, theta_index, m)
                vec = _project(ys, cosets, m)
            ent = IwaSeries._reduced(ctx, vec, None, wp, p ** rep, scale,
                                     growth)
            orow.append(ent.normalize())
        out.append(orow)
    return LogMatrix(out, level=n, provenance="ap-zero level %d" % n,
                     rep_level=rep)


def window_ideal(mat, deg_cap=None):
    """The representation-window polynomial omega_(rep_level) of the matrix."""
    from padiclog.iwadist import omega as _omega
    ctx = mat.entry(0, 0).ctx
    lvl = mat.rep_level if mat.rep_level is not None else (mat.level or 0) + 1
    if deg_cap is None:
        deg_cap = ctx.p ** lvl + 2
    return _omega(ctx, lvl, deg_cap)


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
    `q_matrix_inv(params, "g")` widened to M's window, times M.
    """
    assert mat.dim == 2
    qi = q_matrix_inv(params, "g").entries
    cols = [[mat.entries[0][j], mat.entries[1][j]] for j in range(2)]
    out = [[_scaled_column(qi[i], cols[j]) for j in range(2)] for i in range(2)]
    return LogMatrix(out, mat.level, "Qg^-1 * " + (mat.provenance or "M"),
                     mat.rep_level)


def semi_ordinary_block(mg, k_f, u_f, lower_left, n_trunc=None):
    """Assemble [[u_f M, 0], [*, l_f Tw^(k_f+1) M]] with l_f = log_tw/delta.

    The twisted-log factor divides exactly: log_{p,m} = delta_m * (plus and
    minus half-log product), so divide_exact cannot fail for supported n.
    """
    if mg.dim != 2:
        raise ValueError("expected a 2x2 block")
    ctx = mg.entry(0, 0).ctx
    cap = max(e.deg_cap for row in mg.entries for e in row)
    if n_trunc is None:
        n_trunc = mg.level if mg.level is not None else 2
    need = (k_f + 1) * ctx.p ** n_trunc + 2
    cap = max(cap, need)
    lt = log_tw(ctx, k_f + 1, n_trunc, cap)
    dl = delta(ctx, k_f + 1, cap)
    ell = divide_exact(lt, dl)
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


def q_fg_inv_block(params_g, alpha_f, beta_f, deg_cap=1):
    """Q_{f,g}^(-1) = [[Qg^-1, 0], [Qg^-1, -Qg^-1/c]] from the block triangular shape."""
    diff = alpha_f - beta_f
    if diff.is_zero():
        raise DegenerateEigenvalues("alpha_f = beta_f at working precision")
    qinv = q_matrix_inv(params_g, "g")
    ab = alpha_f * beta_f
    abinv, e_ab = inv_scaled(ab)
    cinv_num = diff * abinv  # 1/c = (alpha - beta)/(alpha beta)
    ctx = params_g.ctx
    z = IwaSeries.zero(ctx, deg_cap)
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
