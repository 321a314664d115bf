"""Signed splitting of eigenvalue-indexed pairs through a logarithmic matrix.

A bounded pair (L+, L-) maps forward to the unbounded pair

    [L_alpha; L_beta] = (Q^(-1) M') [L+; L-].

In a_p = 0 mode the matrix rows are (c, d) and (-c, d) with c = M21/alpha and
d = M12, so alpha*(L_alpha - L_beta) = 2 M21 L+ and L_alpha + L_beta = 2 M12 L-.
Splitting divides those combinations by the matrix entries (unit constant
terms, so the power-series division is exact at truncation) after checking
the parity divisibility certificate: the difference must vanish on the
odd-order part of the congruence locus, the sum on the even-order part.

The matrix depends only on g's (p, k, eps), the level and the precision, so
a `SplitOperator` holds it with what every request reads from it: the
recovered pair (M21, M12) and the largest entry degree.  `split_operator`
builds one per key (p, prec, k, eps, level) and keeps the 8 most recently
used (`functools.lru_cache`), so a run of requests against one form g builds
its operator once.  An operator's size grows with p^(n+2) and prec; at the
default prec 12 a p=3 n=5 operator takes about 0.15 MB.  A key whose build
fails raises every time and is not kept.
"""

from __future__ import annotations

import functools

from padiclog.iwadist import (CharPoint, IwaSeries, NotDivisible, eval_at,
                              phi_tw, poly_reduce, solve_series_div)
from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
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


class SplitOperator:
    """Q^(-1)M' with what splitting reads from it, for one form g and level.

    Holds the params, the matrix `qinv_m`, the pair (M21, M12) recovered from
    it (`_entry_base_parts`, so its row-shape check runs once per operator)
    and `deg_m`, the largest degree of an entry.  No caller mutates these
    series, so one operator serves any number of requests.
    """

    def __init__(self, params, qinv_m):
        self.params = params
        self.qinv_m = qinv_m
        self.ctx = qinv_m.entry(0, 1).ctx
        self.m21, self.m12 = _entry_base_parts(params, qinv_m)
        self.deg_m = _max_degree(qinv_m)

    @classmethod
    def build(cls, params, n):
        """The level-n operator of params, built from the log matrix."""
        return cls(params, qinv_times(params, log_matrix_ap0(params, n)))


@functools.lru_cache(maxsize=8)
def split_operator(p, prec, k, eps, level):
    """The a_p = 0 operator of g = (p, k, eps) at level, built once per key
    while it stays among the 8 most recently used."""
    return SplitOperator.build(CrystalParams.ap_zero(p, prec, k, eps), level)


def _operator(qinv_m, params):
    """qinv_m itself when it is a SplitOperator, else one built from the
    matrix and params (not cached)."""
    if isinstance(qinv_m, SplitOperator):
        return qinv_m
    if params is None:
        raise ValueError("params with the eigenvalue alpha are required")
    return SplitOperator(params, qinv_m)


def _max_degree(mat):
    return max(e.degree() for row in mat.entries for e in row)


def forward(pair, qinv_m):
    """[L_alpha; L_beta] = (Q^-1 M') [L+; L-], without truncation loss.

    qinv_m is the matrix Q^-1 M' or a SplitOperator holding it.  All four
    inputs are polynomial representatives, so widening the window to the
    full product degree keeps the images exact.
    """
    if isinstance(qinv_m, SplitOperator):
        qinv_m, deg_m = qinv_m.qinv_m, qinv_m.deg_m
    else:
        deg_m = _max_degree(qinv_m)
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

    qinv_m is the matrix, with params required, or a SplitOperator, whose
    own params are used.  Raises NoBoundedSolution when a parity-divisibility
    certificate fails, which is exactly the obstruction for inputs outside
    the bounded image.
    """
    op = _operator(qinv_m, params)
    params, ctx, m21, m12 = op.params, op.ctx, op.m21, op.m12
    k = params.k
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
    / det(M').  qinv_m is the matrix or a SplitOperator, as in `signed_split`.
    """
    op = _operator(qinv_m, params)
    params, m21, m12 = op.params, op.m21, op.m12
    cap = op.deg_m * 2 + max(lval.degree(), 0) + 2
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
