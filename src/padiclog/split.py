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
recovered pair (M21, M12), the largest entry degree deg_m, and the four
divisors of a request -- M21, M12 and the level's exact even and odd parity
products -- as `_poly.HeldDivisor`s, each with the inverse of its reversed
coefficient vector.  A reciprocal is held only where the top coefficient is
a unit (not so for M21 or M12 at some k >= 1 keys, which keep the dense
`solve_series_div`), to 2 (deg_m + 1) coefficients; a longer quotient
extends a local copy.  A held parity product serves a request only when its
window is longer than the product's degree: twists do not commute with
truncation, so a shorter window builds the truncated products there.
`signed_split` and `antisym_factor` combine their inputs with IwaSeries
arithmetic and divide by the matrix entries with `solve_series_div`, handing
it the held entry divisors; the parity certificate divides by the held
products on the int vectors (`_rem_visible`).  `split_operator` builds one
operator per key (p, prec, k, eps, level) and keeps the 8 most recently
used (`functools.lru_cache`), so a run of requests against one form g builds
its operator once.  An operator's size grows with p^(n+2) and prec; at the
default prec 12 a p=3 n=5 operator takes about 0.24 MB.  A key whose build
fails raises every time and is not kept.
"""

from __future__ import annotations

import functools

from padiclog import _poly
from padiclog.iwadist import (IwaSeries, NotDivisible, _parts, phi_tw,
                              solve_series_div)
from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
from padiclog.padic import NonUnit, PadicError

# A held reciprocal has HELD_FACTOR (deg_m + 1) coefficients: every quotient
# of a request whose input is no longer than the matrix entries.  A longer
# quotient extends a local copy by Newton steps.
HELD_FACTOR = 2


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
        return all(c.normalize().denom_exp <= self.denom_budget
                   for c in (self.plus, self.minus))

    def __repr__(self):
        return "SignedPair(level=%d)" % self.level


class AlphaBetaPair:
    def __init__(self, alpha_comp, beta_comp, level):
        self.alpha_comp = alpha_comp
        self.beta_comp = beta_comp
        self.level = level

    def __repr__(self):
        return "AlphaBetaPair(level=%d)" % self.level


def _entry_divisor(f, length):
    """The held divisor of a matrix entry, or None where solve_series_div
    would not take its fast path: f zero or its top coefficient not a unit.
    Reciprocal mod p^(f's precision), dividends below p^ctx.prec."""
    p, d = f.ctx.p, f.degree()
    if d < 0 or f.a[d] % p == 0:
        return None
    return _poly.HeldDivisor(f.a[:d + 1], p ** f.coeff_prec(), length,
                             f.ctx.modulus)


def _parity_divisors(prods, length):
    """The (even, odd) parity products as held divisors, None for a
    constant; a truncated product's top coefficient may be a non-unit, and
    then its reciprocal is None."""
    return tuple(_poly.HeldDivisor(f.a, f.modulus(), length)
                 if f.degree() > 0 else None for f in prods)


class SplitOperator:
    """Q^(-1)M' with what splitting reads from it, for one form g and level.

    Holds the params, the matrix `qinv_m`, its `level`, the pair (M21, M12)
    recovered from it (`_entry_base_parts`, so its row-shape check runs once
    per operator) and `deg_m`, the largest degree of an entry.  For the
    divisions every request makes it also holds, as `_poly.HeldDivisor`s
    (int vectors with the reciprocal of the reversed vector, HELD_FACTOR
    (deg_m + 1) coefficients long):

    - `div21`, `div12`: M21 and M12, each reciprocal mod p^(its precision),
      or None where the top coefficient is not a unit (some k >= 1 keys);
    - `parity`: the exact (even, odd) parity products of the level, each
      None when it is the empty product, with reciprocals mod p^ctx.prec,
      and `parity_deg`, the larger of their degrees.

    No caller mutates these, so one operator serves any number of requests.
    """

    def __init__(self, params, qinv_m):
        self.params = params
        self.qinv_m = qinv_m
        self.level = qinv_m.level
        self.ctx = ctx = qinv_m.entry(0, 1).ctx
        self.m21, self.m12 = _entry_base_parts(params, qinv_m)
        self.deg_m = _max_degree(qinv_m)
        length = HELD_FACTOR * (self.deg_m + 1)
        self.div21 = _entry_divisor(self.m21, length)
        self.div12 = _entry_divisor(self.m12, length)
        twists = params.k + 1
        cap = twists * ctx.p ** max(self.level - 1, 0) + 1
        prods = parity_products(ctx, self.level, twists, cap)
        self.parity = _parity_divisors(prods, length)
        self.parity_deg = max(f.degree() for f in prods)

    @classmethod
    def build(cls, params, n):
        """The level-n operator of params, built from the log matrix."""
        return cls(params, qinv_times(params, log_matrix_ap0(params, n)))


@functools.lru_cache(maxsize=8)
def split_operator(p, prec, k, eps, level):
    """The a_p = 0 operator of g = (p, k, eps) at level, built once per key
    while it stays among the 8 most recently used."""
    return SplitOperator.build(CrystalParams.ap_zero(p, prec, k, eps), level)


def _max_degree(mat):
    return max(e.degree() for row in mat.entries for e in row)


def forward(pair, qinv_m):
    """[L_alpha; L_beta] = (Q^-1 M') [L+; L-], without truncation loss.

    qinv_m is the matrix Q^-1 M' (a SplitOperator holds it as `qinv_m`).
    All four inputs are polynomial representatives, so widening the window
    to the full product degree keeps the images exact.
    """
    deg_m = _max_degree(qinv_m)
    deg_v = max(pair.plus.degree(), pair.minus.degree(), 0)
    cap = deg_m + deg_v + 2
    ents = [[qinv_m.entry(i, j).widen(cap) for j in range(2)] for i in range(2)]
    vp, vm = pair.plus.widen(cap), pair.minus.widen(cap)
    la = ents[0][0] * vp + ents[0][1] * vm
    lb = ents[1][0] * vp + ents[1][1] * vm
    return AlphaBetaPair(la, lb, pair.level)


def parity_products(ctx, n, m_twists, deg_cap):
    """(even, odd) products of Phi_{m, m_twists} over 1 <= m <= n-1.

    These cut out the even/odd-order parts of the level-n congruence locus;
    an empty product is 1.
    """
    even = IwaSeries.const(ctx, 1, deg_cap)
    odd = IwaSeries.const(ctx, 1, deg_cap)
    for m in range(1, n):
        f = phi_tw(ctx, m, m_twists, deg_cap)
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


def _rem_visible(f, held, threshold):
    """True when a part of f mod the parity product `held` is nonzero even
    below the certificate precision.

    The remainder is the one `iwadist.poly_reduce` gives at f's coefficient
    precision: the division runs mod p^prec, and where no division step
    reaches the low coefficients they are f's own, which agree with it.
    """
    if held is None:
        return False
    p, prec = f.ctx.p, f.coeff_prec()
    m, t = p ** prec, p ** min(threshold, prec)
    for vec in _parts(f, m):
        r = vec[:_poly.trimmed_len(vec, len(vec))]
        if len(r) >= len(held.g):
            if held.rpack is None:
                raise NonUnit("leading coefficient is not a unit")
            r = _poly.divmod_held(r, held, m, quotient=False)[1]
        if any(c % t for c in r):
            return True
    return False


def signed_split(ab, op, denom_budget=0):
    """Solve (Q^-1 M') [L+; L-] = [L_alpha; L_beta] for a bounded pair.

    op is the SplitOperator of Q^-1 M', and the pair is split at its level.
    Raises NoBoundedSolution when a parity-divisibility certificate fails,
    which is exactly the obstruction for inputs outside the bounded image.
    """
    params, ctx, n = op.params, op.ctx, op.level
    k = params.k
    diff = (ab.alpha_comp - ab.beta_comp) * params.alpha
    tot = ab.alpha_comp + ab.beta_comp
    cap = max(diff.deg_cap, 8)
    # the held products are exact; a window no longer than them holds
    # truncations, built there as the request reads them
    if cap > op.parity_deg:
        even, odd = op.parity
    else:
        even, odd = _parity_divisors(parity_products(ctx, n, k + 1, cap), cap)
    # certificate: the alpha-cleared difference lies in the odd-order part,
    # the sum in the even-order part (matching the parity of M21 and M12).
    # The level-n matrix equals its limit only up to p-denominators bounded
    # by the construction scale, so the remainders are tested above that.
    slack = (k + 1) * (n + 1)
    for comp, prod, tag in ((diff, odd, "difference"), (tot, even, "sum")):
        base = comp.normalize()
        if _rem_visible(base, prod, max(1, base.prec - slack)):
            raise NoBoundedSolution(
                "%s fails the parity divisibility certificate" % tag)
    try:
        plus = solve_series_div(diff, op.m21, op.div21)
        minus = solve_series_div(tot, op.m12, op.div12)
    except NotDivisible as exc:
        raise NoBoundedSolution("entry division failed: %s" % exc)
    # halve the quotients: fewer of their coefficients are nonzero
    plus = (plus * pow(2, -1, plus.modulus())).normalize().with_growth(0)
    minus = (minus * pow(2, -1, minus.modulus())).normalize().with_growth(0)
    pair = SignedPair(plus, minus, n, denom_budget)
    if not pair.check_bounded():
        raise NoBoundedSolution("components exceed the declared denominator budget")
    return pair


def antisym_factor(lval, op):
    """L / det(Q^-1 M'): the antisymmetric-pairing factorization.

    Conjugating an antisymmetric 2x2 matrix by T multiplies the off-diagonal
    entry by det(T), so recovering the sharp-flat pairing value from the
    eigenvalue-indexed one divides by det(Q^-1 M') = (alpha beta/(alpha-beta))
    / det(M').  op is the SplitOperator of Q^-1 M', as in `signed_split`.
    """
    params, m21, m12 = op.params, op.m21, op.m12
    cap = op.deg_m * 2 + max(lval.degree(), 0) + 2
    if m21.is_zero() or m12.is_zero():
        raise NotDivisible("determinant vanishes at precision")
    # det(Q^-1 M') = 2 M12 M21 / alpha, and both entries divide exactly on
    # the image (they are unit multiples of half-log truncations), so the
    # division is performed factor by factor.
    num = (lval.widen(cap) * params.alpha).normalize()
    num = num * pow(2, -1, num.modulus())
    step = solve_series_div(num, m12, op.div12)
    return solve_series_div(step, m21, op.div21).normalize()
