"""Logarithmic matrices from Frobenius data on the pi-adic coefficient ring.

The a_p = 0 case is built from first principles: the crystalline Frobenius
matrix has the explicit antidiagonal shape [[0, -1/(eps p^(k+1))], [1, 0]] and
its Wach-ring lift replaces p^(k+1) by q^(k+1).  The level-n logarithmic
matrix is the finite-level Mellin inverse of

    (1+pi) * A^(n+1) * phi^n(P^(-1)) ... phi(P^(-1)),

computed integrally at boosted precision (the A-power denominators are
tracked as one explicit p-power) and projected to a Delta-isotypic component.

The product carries only the nonzero entries.  For a_p = 0 every factor
phi^i(P^(-1)) is antidiagonal with the constant 1 in one corner, so the
product and A^(n+1) are diagonal or antidiagonal: half of the entries are
structural zeros.  `log_matrix_from_wach` marks zero entries as None once,
skips every term, phi call, Mellin inverse and Delta-projection they would
feed, and does not apply phi to constants (phi fixes them).  Precisions
are tracked as if the zeros were carried, so the output is the same as the
dense computation's; a dense lift takes the same path with the same work.

The general Fontaine-Laffaille-style case has no explicit Frobenius lift
formula here; `log_matrix_from_wach` accepts a caller-supplied lift instead.
"""

from __future__ import annotations

from fractions import Fraction

from padiclog import _poly
from padiclog.cycser import frobenius, mellin_inverse, q_series
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
        """Distinct-eigenvalue mode; the Frobenius lift must come from the caller."""
        if (alpha - beta).is_zero():
            raise DegenerateEigenvalues("alpha = beta at working precision")
        return cls(ctx, k, eps, alpha, beta, FL_SUPPLIED)

    @classmethod
    def ap_zero(cls, p, prec, k, eps=1):
        """Declare the extension needed for alpha with alpha^2 = -eps * p^(k+1)."""
        if k % 2 == 0:
            # odd valuation (k+1)/2: ramified w^2 = c p with c = -eps
            c = (-eps) % p
            ctx = PrimeCtx(p, prec, ("ramified", -eps))
            target = ctx.from_int(-eps * p ** (k + 1))
        elif is_qr(-eps, p):
            ctx = PrimeCtx(p, prec)
            target = ctx.from_int(-eps * p ** (k + 1))
        else:
            ctx = PrimeCtx(p, prec, ("unramified", -eps))
            target = ctx.from_int(-eps * p ** (k + 1))
        alpha = sqrt(target)
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


class ScaledConstMatrix:
    """p^(-p_exp) times an integral constant 2x2 matrix."""

    def __init__(self, num, p_exp):
        self.num = num  # 2x2 of PadicElt
        self.p_exp = p_exp

    def det_scaled(self):
        """(integral determinant, p_exp of the denominator)."""
        d = self.num[0][0] * self.num[1][1] - self.num[0][1] * self.num[1][0]
        return d, 2 * self.p_exp


def _q_power(ctx, e, deg_cap, prec):
    """q^e as a series in pi at precision prec."""
    q = q_series(ctx, deg_cap, prec)
    qe = IwaSeries.const(ctx, 1, deg_cap, prec)
    for _ in range(e):
        qe = qe * q
    return qe


def wach_matrices_ap0(params, deg_cap, prec=None):
    """(A', P'^(-1)) for a_p = 0: A' = [[0, -1/(eps p^(k+1))], [1, 0]] and
    P'^(-1) = [[0, 1], [-eps q^(k+1), 0]].

    Both live over a context at precision prec (default: the parameters'),
    and 1/eps is taken at that precision.
    """
    if params.mode != AP_ZERO:
        raise WrongMode("explicit Wach matrices exist only in a_p = 0 mode")
    ctx = params.ctx
    k = params.k
    if prec is None:
        prec = ctx.prec
    wctx = PrimeCtx(ctx.p, prec, ctx.ext)
    einv = PadicElt(wctx, params.eps.a, params.eps.b, prec).inv()
    aprime = ScaledConstMatrix(
        [[wctx.zero(), -einv], [wctx.from_int(ctx.p ** (k + 1)), wctx.zero()]],
        k + 1)
    qk = _q_power(wctx, k + 1, deg_cap, prec)
    m = ctx.p ** prec
    negeps = (-params.eps.a) % m
    pinv = [[IwaSeries.zero(wctx, deg_cap, prec),
             IwaSeries.const(wctx, 1, deg_cap, prec)],
            [IwaSeries(wctx, _poly.vec_scale(qk.a, negeps, m), None, prec, deg_cap),
             IwaSeries.zero(wctx, deg_cap, prec)]]
    return aprime, pinv


def p_prime_ap0(params, deg_cap, prec=None):
    """P'_g itself: [[0, -1/(eps q^(k+1))], [1, 0]], as (num matrix, q-power scale).

    Returned in scaled form (q^(k+1) * P'_g is integral); mainly used to check
    P' * P'^(-1) = 1 and P' = A' mod pi.
    """
    if params.mode != AP_ZERO:
        raise WrongMode("explicit Wach matrices exist only in a_p = 0 mode")
    ctx = params.ctx
    if prec is None:
        prec = ctx.prec
    qk = _q_power(ctx, params.k + 1, deg_cap, prec)
    einv = params.eps.inv().a
    m = ctx.p ** prec
    num = [[IwaSeries.zero(ctx, deg_cap, prec),
            IwaSeries.const(ctx, (-einv) % m, deg_cap, prec)],
           [qk, IwaSeries.zero(ctx, deg_cap, prec)]]
    return num, qk


def groupring_to_iwa(lam, theta_index=0, out_ctx=None):
    """Project a level-L group-ring element to a Delta-isotypic IwaSeries.

    Each unit a mod p^(L+1) splits as tau(a) * <a> with tau(a) = a^(p^L)
    the Teichmuller part; the component map sends [a] to
    theta(tau(a)) (1+X)^dlog(<a>).
    """
    ctx = lam.ctx if out_ctx is None else out_ctx
    p = lam.ctx.p
    lvl = lam.level
    q = p ** (lvl + 1)
    m = p ** lam.prec
    bs = [0] * (p ** lvl)
    if lam.coeffs:
        u = 1 + p
        dlog = {}
        x = 1
        for e in range(p ** lvl):
            dlog[x] = e
            x = x * u % q
        for a, c in lam.coeffs.items():
            t = pow(a, p ** lvl, q)
            e = dlog[a * pow(t, -1, q) % q]
            if theta_index % (p - 1) != 0:
                tv = teichmuller(lam.ctx, a % p).a
                c = c * pow(tv, theta_index, m)
            bs[e] = (bs[e] + c) % m
    coeffs = _poly.from_onepx_basis(bs, m, p ** lvl)
    return IwaSeries(ctx, coeffs, None, lam.prec, p ** lvl)


def _dot(pairs):
    """Sum of x * y over the pairs, where None is a zero factor: a term with
    a zero factor is skipped, and a sum with no term left is None."""
    acc = None
    for x, y in pairs:
        if x is not None and y is not None:
            acc = x * y if acc is None else acc + x * y
    return acc


def _mat2_mul_pi(A, B):
    return [[_dot((A[i][t], B[t][j]) for t in range(2)) for j in range(2)]
            for i in range(2)]


def _prec_meet(A, B):
    """Entry precisions of a dense 2x2 product: its sums read every factor."""
    return [[min(A[i][0], A[i][1], B[0][j], B[1][j]) for j in range(2)]
            for i in range(2)]


def log_matrix_from_wach(ctx_work, a_scaled, pinv, pinv_scale, n, k,
                         theta_index=0, out_ctx=None, provenance=""):
    """Mellin inverse of (1+pi) A^(n+1) phi^n(P^(-1)) ... phi(P^(-1)) at level n.

    a_scaled: ScaledConstMatrix for A; pinv: 2x2 base-valued IwaSeries in pi
    (denom_exp 0) for p^pinv_scale * P^(-1).  The group-ring representation
    level is n+1, so the returned entries are polynomials of degree < p^(n+1)
    carrying the level-n congruence content.

    Zero entries of pinv are marked None once and skipped at every stage,
    and phi is not applied to constants; precisions are tracked as if the
    zeros were carried, so the output is that of the dense computation.
    """
    p = ctx_work.p
    rep = n + 1
    cap = p ** (rep + 1)
    if any(e.deg_cap < cap for row in pinv for e in row):
        raise ValueError("pinv entries need deg_cap >= p^(n+2) = %d" % cap)
    scale = a_scaled.p_exp * (n + 1) + pinv_scale * n
    # prod = phi^n(P~) * phi^(n-1)(P~) * ... * phi(P~); phi keeps precisions
    pinv_prec = [[e.prec for e in row] for row in pinv]
    cur = [[None if e.is_zero() else e for e in row] for row in pinv]
    prod = None
    for _ in range(n):
        # phi fixes zeros (None) and constants
        cur = [[e if e is None or not (e.b or any(e.a[1:])) else frobenius(e)
                for e in row] for row in cur]
        if prod is None:
            prod, precs = cur, pinv_prec
        else:
            prod, precs = _mat2_mul_pi(cur, prod), _prec_meet(pinv_prec, precs)
    if prod is None:
        one = IwaSeries.const(ctx_work, 1, cap)
        prod, precs = [[one, None], [None, one]], [[ctx_work.prec] * 2] * 2
    # A~^(n+1) acting on the left
    an = [[1, 0], [0, 1]]
    araw = [[a_scaled.num[i][j].a for j in range(2)] for i in range(2)]
    m = ctx_work.modulus
    for _ in range(n + 1):
        an = [[(an[i][0] * araw[0][j] + an[i][1] * araw[1][j]) % m
               for j in range(2)] for i in range(2)]
    an = [[c or None for c in row] for row in an]
    opp = IwaSeries(ctx_work, _poly.onepx_pow(1, cap, p, ctx_work.prec), None,
                    ctx_work.prec, cap)
    zero_ctx = ctx_work if out_ctx is None else out_ctx
    out = []
    for i in range(2):
        orow = []
        for j in range(2):
            s = _dot((prod[t][j], an[i][t]) for t in range(2))
            # the dense (1+pi) * (prod[0][j] an[i][0] + prod[1][j] an[i][1])
            # reads both entries of column j, zero or not
            prec = min(ctx_work.prec, precs[0][j], precs[1][j])
            if s is None:
                ent = IwaSeries.zero(zero_ctx, p ** rep, prec)
            else:
                h = opp * s
                if h.prec != prec:
                    h = IwaSeries(ctx_work, h.a, None, prec, cap)
                ent = groupring_to_iwa(mellin_inverse(h, rep), theta_index,
                                       out_ctx)
            ent.denom_exp = scale
            orow.append(ent.normalize())
        out.append(orow)
    return LogMatrix(out, level=n, provenance=provenance, rep_level=rep)


MAX_REP_DEGREE = 4096


def log_matrix_ap0(params, n, theta_index=0, prec=None):
    """The level-n logarithmic matrix in a_p = 0 mode.

    Internally works at precision prec + (k+1)(n+1) so that the final
    entries are good to roughly the requested precision after the tracked
    denominators are stripped.  The representation needs p^(n+2) stored
    coefficients, which caps the supported level per prime.
    """
    if params.mode != AP_ZERO:
        raise WrongMode("log_matrix_ap0 requires a_p = 0 mode")
    ctx = params.ctx
    k = params.k
    if ctx.p ** (n + 2) > MAX_REP_DEGREE:
        raise InsufficientDegree(
            "level %d needs %d coefficients (budget %d)"
            % (n, ctx.p ** (n + 2), MAX_REP_DEGREE))
    if prec is None:
        prec = ctx.prec
    scale = (k + 1) * (n + 1)
    wp = prec + scale
    ctx_work = PrimeCtx(ctx.p, wp, ctx.ext)
    cap = ctx.p ** (n + 2)
    a_scaled, pinv = wach_matrices_ap0(params, cap, wp)
    mat = log_matrix_from_wach(ctx_work, a_scaled, pinv, 0, n, k, theta_index,
                               out_ctx=ctx, provenance="ap-zero level %d" % n)
    for row in mat.entries:
        for s in row:
            s.growth = Fraction(k + 1, 2)
    return mat


def window_ideal(mat, deg_cap=None):
    """The representation-window polynomial omega_(rep_level) of the matrix."""
    from padiclog.iwadist import omega as _omega
    ctx = mat.entry(0, 0).ctx
    lvl = mat.rep_level if mat.rep_level is not None else (mat.level or 0) + 1
    if deg_cap is None:
        deg_cap = ctx.p ** lvl + 2
    return _omega(ctx, lvl, deg_cap)


def qinv_times(params, mat):
    """Q_g^(-1) * M for a 2x2 logarithmic matrix M."""
    qi = q_matrix_inv(params, "g")
    cap = max(e.deg_cap for row in mat.entries for e in row)
    qi = qi.map(lambda s: s.widen(cap))
    qi.level = mat.level
    out = qi @ mat
    out.provenance = "Qg^-1 * " + (mat.provenance or "M")
    out.rep_level = mat.rep_level
    return out


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
