"""Divisibility checking in truncated multivariate power-series rings.

Models the patching criterion over R = O[[x0, .., xd]]: hypotheses are
(a) no p-content in F or G, (b) x0 does not divide F, (c) G maps to zero in
R/(x0 - a_i, F) for a family of distinct a_i in pO.  The checker verifies the
hypotheses on truncations, then attempts the concluded division directly.
Divisibility itself is decided by solving the graded linear system, so no
Weierstrass-position assumption is needed, and the certified degree/precision
window is reported honestly: finitely many specialization points can never
certify the infinite-ring conclusion.

Here O = Z_p: a series stores its coefficients as ints mod p^prec with one
precision for the whole series, and an extension context is rejected.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple
from operator import add, sub

from padiclog import linsolve
from padiclog._poly import _vp
from padiclog.iwadist import NotDivisible
from padiclog.padic import (INF, NonUnit, PadicError, PrimeCtx, check_fields,
                            int_entry)


# Cells of the dense graded system `divides_trunc` builds, |monos_eq| x
# |monos_h|.  The benchmark and the tests stay within 36 x 36; F = G = 1 in
# three variables at deg_cap 30 would be 4960 x 4960, hundreds of MB of lists.
MAX_SYSTEM_CELLS = 10 ** 6


def _monomials(nvars, max_deg):
    """All exponent tuples of total degree < max_deg, ordered by degree."""
    out = [[] for _ in range(max_deg)]

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out[sum(prefix)].append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, max_deg - 1)
    return [m for bucket in out for m in bucket]


class MSeries:
    """Truncated series over Z_p: exponent tuple -> int mod p^prec, deg < deg_cap.

    One precision holds for the whole series, as for IwaSeries: a result is
    known to the min of its inputs' precisions.
    """

    def __init__(self, ctx, nvars, coeffs=None, deg_cap=8, prec=None):
        if ctx.ext is not None:
            raise ValueError("MSeries coefficients lie in Z_p: no extension")
        if prec is None:
            prec = ctx.prec
        m = ctx.p ** prec
        self.ctx = ctx
        self.nvars = nvars
        self.deg_cap = deg_cap
        self.prec = prec
        self.coeffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise ValueError("wrong arity in exponent %r" % (expo,))
                c %= m
                if c and sum(expo) < deg_cap:
                    self.coeffs[expo] = c

    @classmethod
    def const(cls, ctx, nvars, c, deg_cap=8):
        return cls(ctx, nvars, {tuple([0] * nvars): c}, deg_cap)

    @classmethod
    def var(cls, ctx, nvars, i, deg_cap=8):
        e = [0] * nvars
        e[i] = 1
        return cls(ctx, nvars, {tuple(e): 1}, deg_cap)

    def coeff(self, expo):
        return self.coeffs.get(tuple(expo), 0)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return MSeries(self.ctx, self.nvars, out, min(self.deg_cap, other.deg_cap),
                       min(self.prec, other.prec))

    def __neg__(self):
        return MSeries(self.ctx, self.nvars,
                       {e: -c for e, c in self.coeffs.items()}, self.deg_cap,
                       self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cap = min(self.deg_cap, other.deg_cap)
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) >= cap:
                    continue
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MSeries(self.ctx, self.nvars, out, cap, min(self.prec, other.prec))

    def __eq__(self, other):
        m = self.ctx.p ** min(self.prec, other.prec)
        keys = set(self.coeffs) | set(other.coeffs)
        return all((self.coeff(e) - other.coeff(e)) % m == 0 for e in keys)

    def content_val(self):
        """Minimal p-valuation over all coefficients (INF when zero)."""
        p = self.ctx.p
        return min((_vp(c, p, self.prec) for c in self.coeffs.values()), default=INF)

    def to_json(self):
        return {"nvars": self.nvars, "deg_cap": self.deg_cap,
                "p": self.ctx.p, "prec": self.prec,
                "coeffs": {",".join(map(str, e)): str(c)
                           for e, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, obj, ctx=None):
        """Read a series; its own "prec", when given, caps the context's."""
        check_fields(obj, "series", nvars="nat", deg_cap="nat", prec="nat")
        if ctx is None:
            ctx = PrimeCtx(obj["p"], obj["prec"])
        if not isinstance(obj["coeffs"], dict):
            raise ValueError("coeffs: expected an object of exponent: coefficient")
        coeffs = {}
        for key, v in obj["coeffs"].items():
            expo = tuple(int(t) for t in key.split(","))
            if min(expo) < 0:
                raise ValueError("coeffs: negative exponent in %r" % key)
            coeffs[expo] = int_entry(v, "coeffs")
        prec = min(obj["prec"], ctx.prec) if "prec" in obj else None
        return cls(ctx, obj["nvars"], coeffs, obj["deg_cap"], prec)

    def __repr__(self):
        return "MSeries(%d vars, %d terms, deg_cap=%d, prec=%d)" % (
            self.nvars, len(self.coeffs), self.deg_cap, self.prec)


class SpecFamily:
    """Distinct specialization points a_i in pZ_p, as ints mod p^prec,
    defining f_i = x0 - a_i."""

    def __init__(self, ctx, points):
        pts = [int_entry(a, "points") % ctx.modulus for a in points]
        if any(a % ctx.p for a in pts):
            raise ValueError("specialization points must lie in pO")
        if len(set(pts)) < len(pts):
            raise ValueError("specialization points must be distinct")
        self.ctx = ctx
        self.points = pts


def specialize(f, a):
    """Substitute x0 = a (an int with v(a) >= 1); result lives in x1..xd."""
    m = f.ctx.p ** f.prec
    # a^i mod p^prec for i = 0, 1, ..., one multiplication per power
    pows = [1]
    out = {}
    for e, c in f.coeffs.items():
        while len(pows) <= e[0]:
            pows.append(pows[-1] * a % m)
        rest = e[1:]
        out[rest] = out.get(rest, 0) + c * pows[e[0]]
    return MSeries(f.ctx, f.nvars - 1, out, f.deg_cap, f.prec)


def deg_eff(f):
    """Lowest total degree carrying a unit coefficient, or None."""
    p = f.ctx.p
    return min((sum(e) for e, c in f.coeffs.items() if c % p), default=None)


class DivisionWitness(NamedTuple):
    quotient: object
    cert_degree: int
    cert_prec: int


def divides_trunc(f, g, window=None):
    """Quotient h with g = f*h on the certified window, or NotDivisible.

    The certified window is total degree < deg_cap - deg_eff(f): beyond it a
    truncated divisor cannot constrain the product.  The graded linear system
    is solved once; only when it is inconsistent are its degree prefixes
    solved, to report the first obstructed degree.  F and G must have the
    same variables.
    """
    if f.nvars != g.nvars:
        raise ValueError("F has %d variables but G has %d" % (f.nvars, g.nvars))
    if f.is_zero():
        raise NotDivisible("divisor is zero at precision")
    e0 = deg_eff(f)
    if e0 is None:
        raise NotDivisible("divisor has p-content at precision")
    cap = min(f.deg_cap, g.deg_cap)
    if window is None:
        window = cap - e0
    if window <= 0:
        raise NotDivisible("empty certification window")
    prec = min(f.prec, g.prec)
    p = f.ctx.p
    emin = min((sum(e) for e in f.coeffs), default=0)
    hdeg = window - emin
    # comb(d - 1 + n, n) monomials in n variables have total degree < d
    cells = (comb(window - 1 + f.nvars, f.nvars)
             * comb(max(hdeg, 1) - 1 + f.nvars, f.nvars))
    if cells > MAX_SYSTEM_CELLS:
        raise PadicError("the graded system would have %d cells, over the "
                         "supported %d" % (cells, MAX_SYSTEM_CELLS))
    monos_h = _monomials(f.nvars, max(hdeg, 1))
    monos_eq = _monomials(f.nvars, window)
    idx = {mo: i for i, mo in enumerate(monos_h)}
    # rows: coefficient of each monomial of f*h under the window (the solver
    # reduces mod p^prec)
    rows = []
    for mo in monos_eq:
        row = [0] * len(monos_h)
        for e, c in f.coeffs.items():
            j = idx.get(tuple(map(sub, mo, e)))
            if j is not None:
                row[j] = c
        rows.append(row)
    rhs = [g.coeff(mo) for mo in monos_eq]
    sol = linsolve.solve_mod_ppow(rows, rhs, p, prec)
    if sol is None:
        # the rows run by degree: the first inconsistent prefix names the
        # obstructed degree (the whole system is the last prefix)
        upto = 0
        for d in range(window):
            upto += sum(1 for mo in monos_eq if sum(mo) == d)
            if linsolve.solve_mod_ppow(rows[:upto], rhs[:upto], p, prec) is None:
                raise NotDivisible("first obstructed graded piece at degree %d" % d)
    x, _, loss = sol
    h = MSeries(f.ctx, f.nvars, {mo: x[i] for mo, i in idx.items()},
                max(hdeg, 1), prec - loss)
    return DivisionWitness(h, window, prec - loss)


def scale_p_exact(f, k):
    """Divide every coefficient by p^k, costing k digits of precision.

    Raises NonUnit when some coefficient is not divisible by p^k.
    """
    pk = f.ctx.p ** k
    if any(c % pk for c in f.coeffs.values()):
        raise NonUnit("not divisible by p^%d at precision" % k)
    return MSeries(f.ctx, f.nvars, {e: c // pk for e, c in f.coeffs.items()},
                   f.deg_cap, f.prec - k)


def in_principal_ideal(f, g):
    """Membership of g in (f) over the truncation, content-aware.

    Splits off the p-content of f first, so constant specializations
    (f = p^c * unit) reduce to the coefficient-valuation test.
    """
    c = f.content_val()
    if c == INF:
        return g.is_zero()
    if c > 0:
        if g.content_val() < c:
            return False
        f = scale_p_exact(f, c)
        g = scale_p_exact(g, c)
    try:
        divides_trunc(f, g)
        return True
    except NotDivisible:
        return False


class ChevalleyReport:
    """What `chevalley_check` found: the hypotheses, the (point, ok) pairs
    and, when the hypotheses pass, whether the direct division succeeds."""

    def __init__(self, content_ok, x0_ok):
        self.content_ok = content_ok
        self.x0_ok = x0_ok
        self.point_results = []
        self.points_ok = False
        self.direct_ok = None

    def hypotheses_pass(self):
        return self.content_ok and self.x0_ok and self.points_ok


def chevalley_check(f, g, fam):
    """Verify the divisibility-criterion hypotheses and test the conclusion.

    (a) no p-content in F and G; (b) x0 does not divide F; (c) at each a_i
    the specialized division succeeds.  When everything passes, the direct
    truncated division F | G is attempted as well.  The report certifies
    only truncated statements.  F and G must have the same variables.
    """
    if f.nvars != g.nvars:
        raise ValueError("F has %d variables but G has %d" % (f.nvars, g.nvars))
    if f.nvars < 1:
        raise ValueError("F and G need a variable x0 to specialize, not nvars 0")
    rpt = ChevalleyReport(
        content_ok=(f.content_val() == 0 and g.content_val() == 0),
        x0_ok=not specialize(f, 0).is_zero(),
    )
    for a in fam.points:
        fa = specialize(f, a)
        ga = specialize(g, a)
        ok = in_principal_ideal(fa, ga)
        rpt.point_results.append((a, ok))
    rpt.points_ok = bool(fam.points) and all(ok for _, ok in rpt.point_results)
    if rpt.hypotheses_pass():
        try:
            divides_trunc(f, g)
            rpt.direct_ok = True
        except NotDivisible:
            rpt.direct_ok = False
    return rpt
