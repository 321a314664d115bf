"""Signed splitting of eigenvalue-indexed pairs through a logarithmic matrix.

A bounded pair (L+, L-) maps forward to the unbounded pair

    [L_alpha; L_beta] = (Q^(-1) M') [L+; L-].

In a_p = 0 mode the matrix rows are (c, d) and (-c, d) with c = M21/alpha and
d = M12, so alpha*(L_alpha - L_beta) = 2 M21 L+ and L_alpha + L_beta = 2 M12 L-.
Splitting divides those combinations by the matrix entries (unit constant
terms, so the power-series division is exact at truncation) after checking
the parity divisibility certificate: the difference must vanish on the
odd-order part of the congruence locus, the sum on the even-order part.
"""

from __future__ import annotations

from padiclog.iwadist import (CharPoint, IwaSeries, NotDivisible, eval_at,
                              phi_tw, poly_reduce, solve_series_div)
from padiclog.padic import PadicError


class NoBoundedSolution(PadicError):
    pass


class SignedPair:
    """Bounded components; denom_budget bounds the allowed p-denominator."""

    def __init__(self, plus, minus, level, denom_budget=0):
        self.plus = plus
        self.minus = minus
        self.level = level
        self.denom_budget = denom_budget

    def check_bounded(self):
        for comp in (self.plus, self.minus):
            c = comp.normalize()
            if c.denom_exp > self.denom_budget:
                return False
            if c.growth > 0:
                return False
        return True

    def __repr__(self):
        return "SignedPair(level=%d)" % self.level


class AlphaBetaPair:
    def __init__(self, alpha_comp, beta_comp, level):
        self.alpha_comp = alpha_comp
        self.beta_comp = beta_comp
        self.level = level

    def __repr__(self):
        return "AlphaBetaPair(level=%d)" % self.level


def forward(pair, qinv_m):
    """[L_alpha; L_beta] = (Q^-1 M') [L+; L-], without truncation loss.

    All four inputs are polynomial representatives, so widening the window to
    the full product degree keeps the images exact.
    """
    deg_m = max(qinv_m.entry(i, j).degree() for i in range(2) for j in range(2))
    deg_v = max(pair.plus.degree(), pair.minus.degree(), 0)
    cap = deg_m + deg_v + 2
    ents = [[qinv_m.entry(i, j).widen(cap) for j in range(2)] for i in range(2)]
    vp, vm = pair.plus.widen(cap), pair.minus.widen(cap)
    la = ents[0][0] * vp + ents[0][1] * vm
    lb = ents[1][0] * vp + ents[1][1] * vm
    return AlphaBetaPair(la, lb, pair.level)


def parity_products(ctx, n, m_twists, deg_cap, prec=None):
    """(even, odd) products of Phi_{m, m_twists} over 1 <= m <= n-1.

    These cut out the even/odd-order parts of the level-n congruence locus;
    an empty product is 1.
    """
    even = IwaSeries.const(ctx, 1, deg_cap, prec)
    odd = IwaSeries.const(ctx, 1, deg_cap, prec)
    for m in range(1, n):
        f = phi_tw(ctx, m, m_twists, deg_cap, prec)
        if m % 2 == 0:
            even = even * f
        else:
            odd = odd * f
    return even, odd


def _entry_base_parts(params, qinv_m):
    """(M21, M12) recovered from Q^(-1)M'; both are base-ring series."""
    c = qinv_m.entry(0, 0)
    d = qinv_m.entry(0, 1)
    if not (qinv_m.entry(1, 0) == -c and qinv_m.entry(1, 1) == d):
        raise ValueError("matrix does not have the a_p = 0 row shape")
    m21 = (c * params.alpha).normalize()
    if m21.has_ext():
        raise ValueError("recovered M21 is not base-valued")
    d = d.normalize()
    if d.has_ext():
        raise ValueError("recovered M12 is not base-valued")
    return m21, d


def _rem_visible(f, g, threshold):
    """True when f mod g is nonzero even below the certificate precision."""
    if g.degree() <= 0:
        return False
    r = poly_reduce(f, g)
    mv = r.min_val()
    return mv < min(threshold, r.prec)


def signed_split(ab, qinv_m, n, params=None, denom_budget=0):
    """Solve (Q^-1 M') [L+; L-] = [L_alpha; L_beta] for a bounded pair.

    Raises NoBoundedSolution when a parity-divisibility certificate fails,
    which is exactly the obstruction for inputs outside the bounded image.
    """
    if params is None:
        raise ValueError("params with the eigenvalue alpha are required")
    k = params.k
    ctx = qinv_m.entry(0, 1).ctx
    m21, m12 = _entry_base_parts(params, qinv_m)
    diff = (ab.alpha_comp - ab.beta_comp) * params.alpha
    tot = ab.alpha_comp + ab.beta_comp
    cap = max(diff.deg_cap, 8)
    even, odd = parity_products(ctx, n, k + 1, cap)
    # certificate: the alpha-cleared difference lies in the odd-order part,
    # the sum in the even-order part (matching the parity of M21 and M12).
    # The level-n matrix equals its limit only up to p-denominators bounded
    # by the construction scale, so the remainders are tested above that.
    slack = (k + 1) * (n + 1)
    for comp, prod, tag in ((diff, odd, "difference"), (tot, even, "sum")):
        base = comp.normalize()
        threshold = max(1, base.prec - slack)
        vecs = [base.a] + ([base.b] if base.b else [])
        for vec in vecs:
            f = IwaSeries(ctx, vec, None, base.prec, base.deg_cap)
            if _rem_visible(f, prod, threshold):
                raise NoBoundedSolution(
                    "%s fails the parity divisibility certificate" % tag)
    try:
        plus = solve_series_div(diff * pow(2, -1, diff.modulus()), m21)
        minus = solve_series_div(tot * pow(2, -1, tot.modulus()), m12)
    except NotDivisible as exc:
        raise NoBoundedSolution("entry division failed: %s" % exc)
    plus = plus.normalize().with_growth(0)
    minus = minus.normalize().with_growth(0)
    pair = SignedPair(plus, minus, n, denom_budget)
    if not pair.check_bounded():
        raise NoBoundedSolution("components exceed the declared denominator budget")
    return pair


def antisym_factor(lval, params, qinv_m):
    """L / det(Q^-1 M'): the antisymmetric-pairing factorization.

    Conjugating an antisymmetric 2x2 matrix by T multiplies the off-diagonal
    entry by det(T), so recovering the sharp-flat pairing value from the
    eigenvalue-indexed one divides by det(Q^-1 M') = (alpha beta/(alpha-beta))
    / det(M').
    """
    cap = max(e.degree() for row in qinv_m.entries for e in row) * 2 + \
        max(lval.degree(), 0) + 2
    m21, m12 = _entry_base_parts(params, qinv_m)
    if m21.is_zero() or m12.is_zero():
        raise NotDivisible("determinant vanishes at precision")
    # det(Q^-1 M') = 2 M12 M21 / alpha, and both entries divide exactly on
    # the image (they are unit multiples of half-log truncations), so the
    # division is performed factor by factor.
    num = (lval.widen(cap) * params.alpha).normalize()
    num = num * pow(2, -1, num.modulus())
    step = solve_series_div(num, m12.widen(cap))
    return solve_series_div(step, m21).normalize()


def logdiv_check(lval, k, n):
    """Vanishing on the level-n locus of the twisted log truncation.

    Tests exactly the points X = zeta u^j - 1 with zeta of order p^t,
    2 <= t <= n and 0 <= j <= k; for n < 2 the locus is empty and the check
    passes vacuously.
    """
    for t in range(2, n + 1):
        for j in range(k + 1):
            if not eval_at(lval, CharPoint(t, j)).is_zero():
                return False
    return True
