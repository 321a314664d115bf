"""Divisibility checking in truncated multivariate power-series rings.

Models the patching criterion over R = O[[x0, .., xd]]: hypotheses are
(a) no p-content in F or G, (b) x0 does not divide F, (c) G maps to zero in
R/(x0 - a_i, F) for a family of distinct a_i in pO.  The checker verifies the
hypotheses on truncations, then attempts the concluded division directly.
Divisibility itself is decided by solving the graded linear system, so no
Weierstrass-position assumption is needed, and the certified degree/precision
window is reported honestly: finitely many specialization points can never
certify the infinite-ring conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from padiclog import linsolve
from padiclog.iwadist import NotDivisible
from padiclog.padic import PadicElt, PrimeCtx, int_entry

INF = float("inf")


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
    """Truncated multivariate series: exponent-tuple -> coefficient, deg < deg_cap."""

    def __init__(self, ctx, nvars, coeffs=None, deg_cap=8):
        self.ctx = ctx
        self.nvars = nvars
        self.deg_cap = deg_cap
        self.coeffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise ValueError("wrong arity in exponent %r" % (expo,))
                if sum(expo) >= deg_cap:
                    continue
                if not isinstance(c, PadicElt):
                    c = ctx.from_int(c)
                if not c.is_zero():
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
        return self.coeffs.get(tuple(expo), self.ctx.zero())

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return max((sum(e) for e in self.coeffs), default=-1)

    def min_prec(self):
        return min((c.prec for c in self.coeffs.values()), default=self.ctx.prec)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return MSeries(self.ctx, self.nvars, out, min(self.deg_cap, other.deg_cap))

    def __neg__(self):
        return MSeries(self.ctx, self.nvars,
                       {e: -c for e, c in self.coeffs.items()}, self.deg_cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, PadicElt)):
            return MSeries(self.ctx, self.nvars,
                           {e: c * other for e, c in self.coeffs.items()},
                           self.deg_cap)
        cap = min(self.deg_cap, other.deg_cap)
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) >= cap:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                prod = c1 * c2
                out[e] = prod if s is None else s + prod
        return MSeries(self.ctx, self.nvars, out, cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coeff(e) == other.coeff(e) for e in keys)

    def content_val(self):
        """Minimal p-valuation over all coefficients (INF when zero)."""
        best = INF
        for c in self.coeffs.values():
            v = c.val()
            if v < best:
                best = v
                if best == 0:
                    break
        return best

    def to_json(self):
        return {"nvars": self.nvars, "deg_cap": self.deg_cap,
                "p": self.ctx.p, "prec": self.ctx.prec,
                "coeffs": {",".join(map(str, e)): str(c.a)
                           for e, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, obj, ctx=None):
        if ctx is None:
            ctx = PrimeCtx(obj["p"], obj["prec"])
        if not isinstance(obj["coeffs"], dict):
            raise ValueError("coeffs: expected an object of exponent: coefficient")
        coeffs = {tuple(int(t) for t in key.split(",")): int_entry(v, "coeffs")
                  for key, v in obj["coeffs"].items()}
        return cls(ctx, obj["nvars"], coeffs, obj["deg_cap"])

    def __repr__(self):
        return "MSeries(%d vars, %d terms, deg_cap=%d)" % (
            self.nvars, len(self.coeffs), self.deg_cap)


class SpecFamily:
    """Distinct specialization points a_i in pO defining f_i = x0 - a_i."""

    def __init__(self, ctx, points):
        pts = []
        for a in points:
            if not isinstance(a, PadicElt):
                a = ctx.from_int(int_entry(a, "points"))
            if a.val() < 1:
                raise ValueError("specialization points must lie in pO")
            pts.append(a)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    raise ValueError("specialization points must be distinct")
        self.ctx = ctx
        self.points = pts

    def __len__(self):
        return len(self.points)


def specialize(f, a):
    """Substitute x0 = a (with v(a) >= 1); result lives in x1..xd."""
    if not isinstance(a, PadicElt):
        a = f.ctx.from_int(a)
    # a^i for i = 0, 1, ..., as a running product: the values and precisions
    # of a ** i, with one multiplication per power
    pows = [PadicElt(f.ctx, 1, 0, a.prec)]
    out = {}
    for e, c in f.coeffs.items():
        rest = e[1:]
        while len(pows) <= e[0]:
            pows.append(pows[-1] * a)
        term = c * pows[e[0]]
        s = out.get(rest)
        out[rest] = term if s is None else s + term
    return MSeries(f.ctx, f.nvars - 1, out, f.deg_cap)


def deg_eff(f):
    """Lowest total degree carrying a unit coefficient, or None."""
    best = None
    for e, c in f.coeffs.items():
        if c.is_unit():
            d = sum(e)
            if best is None or d < best:
                best = d
    return best


@dataclass
class DivisionWitness:
    quotient: object
    cert_degree: int
    cert_prec: int


def divides_trunc(f, g, window=None):
    """Quotient h with g = f*h on the certified window, or NotDivisible.

    The certified window is total degree < deg_cap - deg_eff(f): beyond it a
    truncated divisor cannot constrain the product.  Solved degree by degree
    as a graded linear system; on failure the first obstructed degree is
    reported.
    """
    if f.is_zero():
        raise NotDivisible("divisor is zero at precision")
    e0 = deg_eff(f)
    if e0 is None:
        raise NotDivisible("divisor has p-content at precision")
    cap = min(f.deg_cap, g.deg_cap)
    if window is None:
        window = cap - e0
    prec = min(f.min_prec(), g.min_prec())
    p = f.ctx.p
    m = p ** prec
    emin = min((sum(e) for e in f.coeffs), default=0)
    hdeg = window - emin
    monos_h = _monomials(f.nvars, max(hdeg, 1))
    monos_eq = _monomials(f.nvars, window)
    idx = {mo: i for i, mo in enumerate(monos_h)}
    # rows: coefficient of each monomial of f*h under the window
    rows = []
    rhs = []
    loss = 0
    for mo in monos_eq:
        row = [0] * len(monos_h)
        for e, c in f.coeffs.items():
            diff = tuple(a - b for a, b in zip(mo, e))
            if any(d < 0 for d in diff):
                continue
            j = idx.get(diff)
            if j is not None:
                row[j] = (row[j] + c.a) % m
        rows.append(row)
        rhs.append(g.coeff(mo).a % m)
    # solve incrementally by degree to locate the first obstruction
    count_by_deg = {}
    for mo in monos_eq:
        count_by_deg[sum(mo)] = count_by_deg.get(sum(mo), 0) + 1
    upto = 0
    sol = None
    for d in range(window):
        upto += count_by_deg.get(d, 0)
        attempt = linsolve.solve_mod_ppow(rows[:upto], rhs[:upto], p, prec)
        if attempt is None:
            raise NotDivisible("first obstructed graded piece at degree %d" % d)
        sol = attempt
    if sol is None:
        raise NotDivisible("empty certification window")
    x, _, loss = sol
    hco = {}
    for mo, i in idx.items():
        if x[i] % m:
            hco[mo] = PadicElt(f.ctx, x[i], 0, prec - loss)
    h = MSeries(f.ctx, f.nvars, hco, max(hdeg, 1))
    return DivisionWitness(h, window, prec - loss)


def scale_p_exact(f, k):
    """Divide every coefficient by p^k (all valuations must allow it)."""
    out = {}
    for e, c in f.coeffs.items():
        out[e] = c.divide_exact_p(k)
    return MSeries(f.ctx, f.nvars, out, f.deg_cap)


def in_principal_ideal(f, g):
    """Membership of g in (f) over the truncation, content-aware.

    Splits off the p-content of f first, so constant specializations
    (f = p^c * unit) reduce to the coefficient-valuation test.
    """
    c = f.content_val()
    if c == INF:
        return g.is_zero()
    c = int(c)
    if c > 0:
        if any(x.val() < c for x in g.coeffs.values()):
            return False
        f = scale_p_exact(f, c)
        g = scale_p_exact(g, c)
    try:
        divides_trunc(f, g)
        return True
    except NotDivisible:
        return False


@dataclass
class ChevalleyReport:
    content_ok: bool
    x0_ok: bool
    point_results: list = field(default_factory=list)
    points_ok: bool = False
    direct_ok: bool = None
    direct_witness: object = None

    def hypotheses_pass(self):
        return self.content_ok and self.x0_ok and self.points_ok


def chevalley_check(f, g, fam):
    """Verify the divisibility-criterion hypotheses and test the conclusion.

    (a) no p-content in F and G; (b) x0 does not divide F; (c) at each a_i
    the specialized division succeeds.  When everything passes, the direct
    truncated division F | G is attempted as well.  The report certifies
    only truncated statements.
    """
    rpt = ChevalleyReport(
        content_ok=(f.content_val() == 0 and g.content_val() == 0),
        x0_ok=not specialize(f, 0).is_zero(),
    )
    for a in fam.points:
        fa = specialize(f, a)
        ga = specialize(g, a)
        ok = in_principal_ideal(fa, ga)
        rpt.point_results.append((a, ok, None))
    rpt.points_ok = bool(fam.points) and all(ok for _, ok, _ in rpt.point_results)
    if rpt.hypotheses_pass():
        try:
            rpt.direct_witness = divides_trunc(f, g)
            rpt.direct_ok = True
        except NotDivisible:
            rpt.direct_ok = False
    return rpt
