"""Truncated Iwasawa-algebra and distribution-algebra elements.

An IwaSeries is a truncation of an element of O[[X]] (X = gamma - 1, with the
cyclotomic value of gamma fixed to u = 1 + p) scaled by an explicit power of
p: the stored coefficients are integral and `denom_exp` records the power of
p in the denominator.  A growth tag r marks claimed membership in the
distribution algebra of order r; at finite truncation the analytic condition
is replaced by the coefficient-valuation proxy checked by `growth_check`.

Twisting is the substitution X -> u^j(1+X) - 1, diagonal in the (1+X)-power
basis; the omega/Phi families, Pollack half-logarithms and their twisted
products are exact finite products of such polynomials.

Division and valuation run on the stored int vectors through `_poly`: an
extension-valued series is divided once on its base part and once on its
w-part, and every divisor is base-valued.  There is one remainder,
`poly_reduce`, whose precisions follow coefficientwise fixed-point
arithmetic (see `_divmod_top`), and one exact quotient, `solve_series_div`:
its fast path divides from the top and reads both operands at their lesser
precision, so its quotient has that one precision; other quotients come from
one linear solve.  A caller that divides by one g many times hands
`solve_series_div` g's reciprocal, held in a `_poly.HeldDivisor`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from padiclog import _poly, linsolve
from padiclog._poly import _vp
from padiclog.padic import (INF, NonUnit, PadicElt, PadicError,
                            PrecisionLoss, PrimeCtx, check_fields, int_entry)


class InsufficientDegree(PrecisionLoss):
    pass


class NotDivisible(PadicError):
    pass


class NoUnitWitness(PadicError):
    pass


class ExtensionTooLarge(PadicError):
    pass


def ucyc(ctx):
    """The fixed cyclotomic value of the chosen topological generator."""
    return 1 + ctx.p


def _parts(f, m):
    """f's base part and its w-part, if any, below p^ctx.prec: reduced mod
    m only when f's precision exceeds the context's."""
    parts = (f.a,) if f.b is None else (f.a, f.b)
    if f.prec > f.ctx.prec:
        parts = [[c % m for c in v] for v in parts]
    return parts


class IwaSeries:
    """p^(-denom_exp) times an integral truncated power series over O."""

    __slots__ = ("ctx", "a", "b", "prec", "deg_cap", "denom_exp", "growth")

    def __init__(self, ctx, a, b=None, prec=None, deg_cap=None, denom_exp=0,
                 growth=Fraction(0)):
        if prec is None:
            prec = ctx.prec
        if deg_cap is None:
            deg_cap = len(a)
        m = ctx.p ** prec
        self.ctx = ctx
        self.a = [c % m for c in a[:deg_cap]] + [0] * max(0, deg_cap - len(a))
        b = [c % m for c in b[:deg_cap]] if b is not None else []
        # a w-part that vanishes at the stored precision is not kept
        self.b = b + [0] * (deg_cap - len(b)) if any(b) else None
        self.prec = prec
        self.deg_cap = deg_cap
        self.denom_exp = denom_exp
        # a Fraction is immutable: one already given is kept as it is
        self.growth = growth if type(growth) is Fraction else Fraction(growth)

    @classmethod
    def _reduced(cls, ctx, a, b, prec, deg_cap, denom_exp, growth):
        """The series __init__ would build from these fields, for vectors
        already reduced mod p^prec at length deg_cap and a Fraction growth:
        the lists are kept as they are, not reduced or copied again."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.a = a
        self.b = b if b is not None and any(b) else None
        self.prec = prec
        self.deg_cap = deg_cap
        self.denom_exp = denom_exp
        self.growth = growth
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx, deg_cap, prec=None):
        return cls(ctx, [0] * deg_cap, None, prec, deg_cap)

    @classmethod
    def const(cls, ctx, c, deg_cap, prec=None):
        if isinstance(c, PadicElt):
            prec = c.prec if prec is None else min(prec, c.prec)
            return cls(ctx, [c.a] + [0] * (deg_cap - 1),
                       [c.b] + [0] * (deg_cap - 1) if c.b else None, prec, deg_cap)
        return cls(ctx, [c] + [0] * (deg_cap - 1), None, prec, deg_cap)

    @classmethod
    def gen(cls, ctx, deg_cap):
        return cls(ctx, [0, 1] + [0] * (deg_cap - 2), None, None, deg_cap)

    def modulus(self):
        return self.ctx.p ** self.prec

    def coeff(self, i):
        """Stored (integral) coefficient as a PadicElt; ignores denom_exp."""
        if i >= self.deg_cap:
            return PadicElt(self.ctx, 0, 0, self.prec)
        return PadicElt(self.ctx, self.a[i], self.b[i] if self.b else 0, self.prec)

    def has_ext(self):
        return self.b is not None

    def degree(self):
        d = _poly.trimmed_len(self.a, self.deg_cap)
        if self.b:
            d = max(d, _poly.trimmed_len(self.b, self.deg_cap))
        return d - 1

    def is_zero(self):
        # a kept w-part is nonzero (see __init__)
        return self.b is None and not any(self.a)

    # -- denominator bookkeeping ---------------------------------------------

    def rescale(self, extra):
        """Multiply stored coefficients by p^extra and bump denom_exp to match."""
        if extra == 0:
            return self
        pk = self.ctx.p ** extra
        prec = min(self.prec + extra, self.ctx.prec)
        return IwaSeries(self.ctx, [c * pk for c in self.a],
                         [c * pk for c in self.b] if self.b else None,
                         prec, self.deg_cap, self.denom_exp + extra, self.growth)

    def coeff_prec(self):
        """Precision of a single stored coefficient (capped by the context)."""
        return max(0, min(self.prec, self.ctx.prec))

    def valuations(self):
        """Valuation of each stored coefficient, INF where it is zero at precision.

        v(p) = 1; in a ramified extension the w-part adds 1/2.
        """
        p, prec = self.ctx.p, self.coeff_prec()
        m = p ** prec
        half = Fraction(1, 2) if self.ctx.ramified() else 0
        out = [Fraction(_vp(c % m, p, prec)) if c % m else INF for c in self.a]
        if self.b:
            out = [min(va, Fraction(_vp(c % m, p, prec)) + half if c % m else INF)
                   for va, c in zip(out, self.b)]
        return out

    def min_val(self):
        """Minimal valuation of the stored coefficients (INF for the zero series).

        Equals min(valuations()): the least p-adic valuation of a part is
        that of the gcd of its coefficients, and the w-part adds 1/2 in a
        ramified extension.
        """
        p, prec = self.ctx.p, self.coeff_prec()
        parts = _parts(self, p ** prec)
        vals = []
        g = gcd(*parts[0])
        if g:
            vals.append(Fraction(_vp(g, p, prec)))
        g = gcd(*parts[1]) if self.b else 0
        if g:
            half = Fraction(1, 2) if self.ctx.ramified() else 0
            vals.append(Fraction(_vp(g, p, prec)) + half)
        return min(vals, default=INF)

    def strip_exp(self):
        """The power of p that `normalize` strips: the least valuation of the
        stored coefficients at `coeff_prec()` (the whole `prec` for a series
        that vanishes there), at most `denom_exp`, and 0 when that is not
        positive."""
        if self.denom_exp <= 0:
            return 0
        v = self.min_val()
        return max(0, min(self.denom_exp, int(v) if v is not INF else self.prec))

    def normalize(self):
        """Strip provable common p-content from the stored coefficients."""
        s = self.strip_exp()
        if s == 0:
            return self
        pk = self.ctx.p ** s
        # entries below p^prec floor-divide to entries below p^(prec - s)
        return IwaSeries._reduced(self.ctx, [c // pk for c in self.a],
                                  [c // pk for c in self.b] if self.b else None,
                                  self.prec - s, self.deg_cap, self.denom_exp - s,
                                  self.growth)

    def _aligned(self, other):
        d = max(self.denom_exp, other.denom_exp)
        return self.rescale(d - self.denom_exp), other.rescale(d - other.denom_exp)

    # -- ring structure -------------------------------------------------------

    def _add(self, other, op):
        """op(self, other) for op operator.add or operator.sub, on the
        aligned int vectors in one pass."""
        if isinstance(other, (int, PadicElt)):
            other = IwaSeries.const(self.ctx, other, self.deg_cap, self.prec)
        x, y = self._aligned(other)
        prec = min(x.prec, y.prec)
        cap = min(x.deg_cap, y.deg_cap)
        m = x.ctx.p ** prec
        a = [c % m for c in map(op, x.a, y.a)]
        b = None
        if x.b or y.b:
            zeros = [0] * cap
            b = [c % m for c in map(op, x.b or zeros, y.b or zeros)]
        return IwaSeries._reduced(x.ctx, a, b, prec, cap, x.denom_exp,
                                  max(x.growth, y.growth))

    def __add__(self, other):
        return self._add(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        m = self.modulus()
        return IwaSeries._reduced(self.ctx, _poly.vec_neg(self.a, m),
                                  _poly.vec_neg(self.b, m) if self.b else None,
                                  self.prec, self.deg_cap, self.denom_exp, self.growth)

    def __sub__(self, other):
        return self._add(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.modulus()
            return IwaSeries._reduced(
                self.ctx, _poly.vec_scale(self.a, other, m),
                _poly.vec_scale(self.b, other, m) if self.b else None,
                self.prec, self.deg_cap, self.denom_exp, self.growth)
        prec = min(self.prec, other.prec)
        m = self.ctx.p ** prec
        e = None
        if self.b or other.b:
            e = self.ctx.wsq()
            if e is None:
                raise ValueError("extension coefficients without an extension")
        xa = self.a
        if isinstance(other, PadicElt):
            # (xa + xb w)(ca + cb w), w^2 = e, coefficient by coefficient
            ca, cb = other.a, other.b
            b = None
            if e is None:
                a = [x * ca % m for x in xa]
            else:
                xb, ecb = self.b or [0] * self.deg_cap, e * cb
                a = [(x * ca + y * ecb) % m for x, y in zip(xa, xb)]
                b = [(x * cb + y * ca) % m for x, y in zip(xa, xb)]
            return IwaSeries._reduced(self.ctx, a, b, prec, self.deg_cap,
                                      self.denom_exp, self.growth)
        cap = min(self.deg_cap, other.deg_cap)
        ya = other.a
        a = _poly.vec_mul(xa, ya, m, cap)
        b = None
        if e is not None:
            b = _poly.vec_add(
                _poly.vec_mul(xa, other.b, m, cap) if other.b else [0] * cap,
                _poly.vec_mul(self.b, ya, m, cap) if self.b else [0] * cap, m)
            if self.b and other.b:
                bb = _poly.vec_mul(self.b, other.b, m, cap)
                a = _poly.vec_add(a, _poly.vec_scale(bb, e, m), m)
        a += [0] * (cap - len(a))
        return IwaSeries._reduced(self.ctx, a, b, prec, cap,
                                  self.denom_exp + other.denom_exp,
                                  self.growth + other.growth)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, PadicElt)):
            other = IwaSeries.const(self.ctx, other, self.deg_cap, self.prec)
        x, y = self._aligned(other)
        prec = min(x.prec, y.prec)
        cap = min(x.deg_cap, y.deg_cap)
        m = x.ctx.p ** prec
        xs, ys = x.a[:cap], y.a[:cap]
        if x.b or y.b:
            xs += x.b[:cap] if x.b else [0] * cap
            ys += y.b[:cap] if y.b else [0] * cap
        return not any([(u - v) % m for u, v in zip(xs, ys)])

    def with_growth(self, r):
        return IwaSeries._reduced(self.ctx, self.a, self.b, self.prec,
                                  self.deg_cap, self.denom_exp, Fraction(r))

    def widen(self, new_cap):
        """Zero-pad to a larger window; exact for polynomial representatives."""
        if new_cap <= self.deg_cap:
            return self
        pad = [0] * (new_cap - self.deg_cap)
        return IwaSeries._reduced(self.ctx, self.a + pad,
                                  self.b + pad if self.b else None, self.prec,
                                  new_cap, self.denom_exp, self.growth)

    def times_p(self, k):
        """Multiply the value by p^k (k may be negative)."""
        if k == 0:
            return self
        if k < 0 or k <= self.denom_exp:
            # only the denominator moves
            return IwaSeries._reduced(self.ctx, self.a, self.b, self.prec,
                                      self.deg_cap, self.denom_exp - k,
                                      self.growth)
        pk = self.ctx.p ** (k - self.denom_exp)
        m = self.modulus()
        return IwaSeries._reduced(self.ctx, _poly.vec_scale(self.a, pk, m),
                                  _poly.vec_scale(self.b, pk, m) if self.b else None,
                                  self.prec, self.deg_cap, 0, self.growth)

    def to_json(self):
        out = {"var": "X", "p": self.ctx.p, "deg_cap": self.deg_cap,
               "prec": self.prec, "growth": str(self.growth),
               "denom_exp": self.denom_exp,
               "coeffs": [str(c) for c in self.a]}
        if self.b:
            out["coeffs_w"] = [str(c) for c in self.b]
        return out

    def __repr__(self):
        return ("IwaSeries(p=%d, deg_cap=%d, prec=%d, denom=%d, growth=%s)"
                % (self.ctx.p, self.deg_cap, self.prec, self.denom_exp, self.growth))


def _int_list(v, where):
    """The coefficients of a JSON list, each read as `int_entry` reads it.

    A list of only ints, or of only unsigned decimal strings (what `to_json`
    writes), is checked at C speed; any other list, signed strings included,
    goes entry by entry through `int_entry`, which raises the error.
    """
    if not isinstance(v, list):
        raise ValueError("%s: expected a list of coefficients" % where)
    kinds = set(map(type, v))
    if kinds <= {int}:
        return list(v)
    if kinds == {str} and all(v) and "".join(v).isdecimal():
        return list(map(int, v))
    return [int_entry(c, where) for c in v]


def _growth(v):
    """The growth field: an int or a fraction string such as "1/2"."""
    if type(v) is int or isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("growth: expected an integer or a fraction string, got %r"
                     % (v,))


def from_json(obj, ctx=None):
    check_fields(obj, "series", prec="nat", deg_cap="nat", denom_exp="nat")
    if ctx is None:
        ctx = PrimeCtx(obj["p"], obj["prec"])
    a = _int_list(obj["coeffs"], "coeffs")
    b = _int_list(obj["coeffs_w"], "coeffs_w") if "coeffs_w" in obj else None
    return IwaSeries(ctx, a, b, obj.get("prec"), obj.get("deg_cap"),
                     obj.get("denom_exp", 0), _growth(obj.get("growth", 0)))


# -- the omega / Phi / delta families ----------------------------------------


def omega(ctx, n, deg_cap, prec=None):
    """omega_n = (1+X)^(p^n) - 1."""
    if deg_cap <= ctx.p ** n:
        raise InsufficientDegree("deg_cap %d cannot hold omega_%d" % (deg_cap, n))
    np_ = prec if prec is not None else ctx.prec
    out = _poly.onepx_pow(ctx.p ** n, deg_cap, ctx.p, np_)
    out[0] = (out[0] - 1) % ctx.p ** np_
    return IwaSeries(ctx, out, None, np_, deg_cap)


def phi_cyc(ctx, n, deg_cap):
    """Phi_n = omega_n / omega_(n-1) = sum_{j<p} (1+X)^(j p^(n-1)); Phi_0 = X."""
    if n == 0:
        return IwaSeries.gen(ctx, deg_cap)
    deg = ctx.p ** n - ctx.p ** (n - 1)
    if deg_cap <= deg:
        raise InsufficientDegree("deg_cap %d cannot hold Phi_%d" % (deg_cap, n))
    bs = [0] * (deg + 1)
    bs[::ctx.p ** (n - 1)] = [1] * ctx.p
    return IwaSeries(ctx, _poly.from_onepx_basis(bs, ctx.modulus, deg_cap),
                     None, ctx.prec, deg_cap)


def twist(f, j):
    """Tw^j: the substitution X -> u^j (1+X) - 1."""
    m = f.modulus()
    c = pow(ucyc(f.ctx), j, m)
    b = _poly.taylor_shift(f.b, c - 1, c, m, f.deg_cap) if f.b else None
    return IwaSeries(f.ctx, _poly.taylor_shift(f.a, c - 1, c, m, f.deg_cap), b,
                     f.prec, f.deg_cap, f.denom_exp, f.growth)


def twisted_product(ctx, base, m_twists):
    """prod_{i<m} Tw^(-i)(base); the empty product is 1."""
    if m_twists == 0:
        return IwaSeries.const(ctx, 1, base.deg_cap, base.prec)
    out = None
    cur = base
    for i in range(m_twists):
        if i > 0:
            cur = twist(cur, -1)
        out = cur if out is None else out * cur
    return out


def omega_tw(ctx, n, m, deg_cap, prec=None):
    return twisted_product(ctx, omega(ctx, n, deg_cap, prec), m)


def phi_tw(ctx, n, m, deg_cap):
    return twisted_product(ctx, phi_cyc(ctx, n, deg_cap), m)


def delta(ctx, m, deg_cap):
    return twisted_product(ctx, IwaSeries.gen(ctx, deg_cap), m)


def halflog(ctx, sign, m, n_trunc, deg_cap):
    """Truncated Pollack half-logarithm prod_{i<m} Tw^(-i) prod_{k even/odd <= n} Phi_k/p.

    The stored series is the integral product of the Phi's; the p-denominator
    is carried in denom_exp and the growth tag is m/2.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    ks = [k for k in range(1, n_trunc + 1) if (k % 2 == 0) == (sign == "+")]
    acc = IwaSeries.const(ctx, 1, deg_cap)
    for k in ks:
        acc = acc * phi_cyc(ctx, k, deg_cap)
    out = twisted_product(ctx, acc, m)
    out.denom_exp = m * len(ks)
    out.growth = Fraction(m, 2)
    return out


def log_tw(ctx, m, n_trunc, deg_cap):
    """Truncation of prod_{i<m} Tw^(-i)(log_p) = delta_m * prod Phi_k / p^(mn)."""
    acc = IwaSeries.gen(ctx, deg_cap)
    for k in range(1, n_trunc + 1):
        acc = acc * phi_cyc(ctx, k, deg_cap)
    out = twisted_product(ctx, acc, m)
    out.denom_exp = m * n_trunc
    out.growth = Fraction(m)
    return out


def growth_check(f, r=None, c=0):
    """Coefficient-valuation proxy for membership in the order-r algebra.

    v_p(coeff_i) >= -r * ceil(log_p(i+1)) - c for every stored index i.
    """
    if r is None:
        r = f.growth
    r = Fraction(r)
    p = f.ctx.p
    bound_exp = 0
    reach = 1
    for i, v in enumerate(f.valuations()):
        if i + 1 > reach:
            bound_exp += 1
            reach *= p
        if v is INF:
            continue
        if v - f.denom_exp < -r * bound_exp - c:
            return False
    return True


# -- evaluation at character points ------------------------------------------


class CharPoint(NamedTuple):
    """Evaluation point X = zeta * u^j - 1 with zeta of exact order p^t."""

    t: int
    j: int


MAX_CYC_DEGREE = 4000


def eval_at(f, pt):
    """Evaluate at X = zeta u^j - 1: sum b_k (zeta u^j)^k over the (1+X)-basis.

    The value lies in O[z]/Phi_{p^t}(z).  It is returned as an IwaSeries of
    deg_cap phi(p^t) (1 when t = 0) holding its coordinates in the power
    basis 1, z, ..., z^(phi(p^t) - 1), at f's coefficient precision and with
    f's denom_exp.
    """
    ctx = f.ctx
    p = ctx.p
    if pt.t < 0:
        raise ValueError("t must be >= 0")
    d = 1 if pt.t == 0 else (p - 1) * p ** (pt.t - 1)
    if d > MAX_CYC_DEGREE:
        raise ExtensionTooLarge("phi(p^t) = %d exceeds supported degree" % d)
    m = f.modulus()
    uj = pow(ucyc(ctx), pt.j, m)
    pt_order = p ** pt.t

    def value(vec):
        # z^k = z^(k mod p^t), then z^(d+r) = -sum_{i<p-1} z^(i p^(t-1) + r)
        acc = [0] * pt_order
        ujk = 1
        for k, bk in enumerate(_poly.to_onepx_basis(vec, m)):
            if bk:
                acc[k % pt_order] += bk * ujk % m
            ujk = ujk * uj % m
        for r, c in enumerate(acc[d:]):
            for i in range(0, d, pt_order // p):
                acc[i + r] -= c
        return acc[:d]

    out = IwaSeries(ctx, value(f.a), value(f.b) if f.b else None,
                    f.coeff_prec(), d, f.denom_exp)
    if out.b and ctx.ext is None:
        raise ValueError("second coordinate requires an extension")
    return out


# -- division and unit comparison ----------------------------------------------


def _divmod_top(f, g):
    """(q, r) with f = q*g + r, by long division of the int vectors from the top.

    g must be base-valued with a unit leading coefficient; the base part and
    the w-part of f are divided separately.  Precisions follow coefficientwise
    fixed-point arithmetic: a coefficient drops from f's precision to
    min(f.prec, g.prec) once a division step touches it, and a step runs
    exactly when the top coefficient is nonzero at its current precision.
    A window with no stored coefficients keeps the context precision.
    """
    ctx, p = f.ctx, f.ctx.p
    if g.has_ext():
        raise NotDivisible("divisor must be base-valued")
    dg = g.degree()
    if dg < 0:
        raise ZeroDivisionError("reduction modulo zero")
    fp, gp = f.coeff_prec(), g.coeff_prec()
    if gp == 0 or g.a[dg] % p == 0:
        raise NonUnit("leading coefficient is not a unit")
    pm = min(fp, gp)
    n = f.deg_cap
    (qa, ra), (qb, rb) = [_poly.poly_divmod_top(v, g.a[:dg + 1], p ** pm, p, pm)
                          if v is not None else (None, None) for v in (f.a, f.b)]
    # Replay which steps the fixed-point division runs.  Step i touches the
    # coefficients i-dg..i.  The division mod p^pm above skips a step whose
    # top coefficient is nonzero only beyond p^pm, which can happen only
    # while that coefficient is untouched and still at f's precision.
    fm = p ** fp
    last = None  # lowest step run; steps run from the top down
    for i in range(n - 1, dg - 1, -1):
        if (qa[i - dg] or (qb and qb[i - dg])
                or ((last is None or last > i + dg)
                    and (f.a[i] % fm or (f.b and f.b[i] % fm)))):
            last = i
    low = last is not None and last < 2 * dg
    if not low:
        ra, rb = f.a, f.b
    quot = IwaSeries(ctx, qa, qb, pm if last is not None else
                     (fp if n > dg else ctx.prec), n)
    rprec = pm if low else (fp if min(n, dg) else ctx.prec)
    rem = IwaSeries(ctx, ra, rb, rprec, dg, f.denom_exp, f.growth)
    return quot, rem


def poly_reduce(f, g):
    """Remainder of f modulo the polynomial g (unit leading coefficient)."""
    return _divmod_top(f, g)[1]


def is_unit(f):
    """Unit of the truncated Iwasawa algebra: integral with unit constant term."""
    g = f.normalize()
    return g.denom_exp == 0 and g.coeff(0).is_unit()


def solve_series_div(y, g, held=None):
    """q with g*q = y on the stored window, by exact linear solving.

    Handles divisors whose stored coefficients have mixed valuations (where
    pivot-based division would lose precision coefficient by coefficient);
    the minimal-valuation pivoting keeps the loss to the intrinsic amount,
    reported through the returned precision.  Divisor must be base-valued.

    Fast path: where g's top coefficient is a unit and y is below the top
    of its window, each part of y is divided from the top mod p^pm, pm the
    precision of both operands there (min(y.prec, g.prec), capped by the
    context's).  On a zero remainder the quotient has precision pm when the
    window is longer than deg g, else the context's.  `held`, when given,
    is g as a `_poly.HeldDivisor` with its reciprocal, its modulus a
    multiple of p^pm and its bound at least p^ctx.prec (as
    `split.SplitOperator` holds its entries); the division then multiplies
    by the held reciprocal instead of building one.
    """
    if g.has_ext():
        raise NotDivisible("divisor must be base-valued")
    ctx, p = y.ctx, y.ctx.p
    prec = min(y.prec, g.prec)
    dg = g.degree()
    if dg < 0:
        raise NotDivisible("division by zero at precision")
    cap, dy = y.deg_cap, y.degree()
    dshift = y.denom_exp - g.denom_exp
    growth = max(Fraction(0), y.growth - g.growth)
    if prec > 0 and g.a[dg] % p and dy + 1 < cap:
        pm = min(prec, ctx.prec)
        mm = p ** pm
        out = []
        for vec in _parts(y, mm):
            if held is None:
                q, r = _poly.poly_divmod_top(vec, g.a[:dg + 1], mm, p, pm)
            else:
                q, r = [], vec[:_poly.trimmed_len(vec, cap)]
                if len(r) > dg:
                    q, r = _poly.divmod_held(r, held, mm)
            if any([c % mm for c in r]):
                break
            out.append(q + [0] * (cap - len(q)))
        else:
            quot = IwaSeries._reduced(ctx, out[0], out[1] if len(out) > 1 else None,
                                      pm if cap > dg else ctx.prec, cap,
                                      max(dshift, 0), growth)
            return quot.times_p(-dshift) if dshift < 0 else quot
    m = p ** prec
    widths = [cap]
    if 0 <= dy < cap - 1 and dy - dg + 1 < cap:
        # polynomial-sized system first: much smaller when the quotient is
        # an exact polynomial (images of bounded inputs)
        widths.insert(0, max(dy - dg + 1, 1))
    last_exc = None
    for width in widths:
        rows = [[(g.a[i - j] if 0 <= i - j <= dg else 0)
                 for j in range(width)] for i in range(cap)]
        out_vecs = []
        loss = 0
        try:
            for vec in (y.a, y.b):
                if vec is None:
                    out_vecs.append(None)
                    continue
                rhs = [vec[i] % m for i in range(cap)]
                sol = linsolve.solve_mod_ppow(rows, rhs, ctx.p, prec)
                if sol is None:
                    raise NotDivisible("no quotient at this precision")
                x, kernel, step_loss = sol
                loss = max(loss, step_loss)
                out_vecs.append(x)
        except NotDivisible as exc:
            last_exc = exc
            continue
        q = IwaSeries(ctx, out_vecs[0], out_vecs[1], prec - loss, width,
                      max(dshift, 0), growth)
        if dshift < 0:
            q = q.times_p(-dshift)
        return q
    raise last_exc


def _xpow_columns(h, top, m):
    """[X^k h mod top for k < deg(top)] as int vectors mod m of length
    deg(top), for h of degree below deg(top) and top with a unit leading
    coefficient: each step shifts the last vector and subtracts its top
    term times top."""
    d = len(top) - 1
    linv = pow(top[d], -1, m)
    col = [c % m for c in h[:d]] + [0] * (d - len(h[:d]))
    out = [col]
    while len(out) < d:
        c = col[-1] * linv % m
        col = [(x - c * y) % m for x, y in zip([0] + col[:-1], top)]
        out.append(col)
    return out[:d]


def equal_up_to_unit_mod(f, g, n, m_twists=1, prec=None, extra_ideals=()):
    """Find a unit u with f = u*g modulo (p^prec, omega_{n, m_twists}, extras).

    Solved as an exact linear system over the quotient ring; the kernel is
    used to adjust the representative to a unit when possible.  Restricted to
    base-ring series.  extra_ideals lists further polynomial generators of
    the congruence ideal (e.g. the representation-window polynomial of a
    finite-level object, which does not divide twisted ideals).
    """
    if f.has_ext() or g.has_ext():
        raise NoUnitWitness("unit comparison requires base-ring series")
    ctx = f.ctx
    fn = f.normalize()
    gn = g.normalize()
    if fn.denom_exp != gn.denom_exp:
        raise NoUnitWitness("denominator exponents differ (%d vs %d)"
                            % (fn.denom_exp, gn.denom_exp))
    if prec is None:
        prec = min(fn.prec, gn.prec)
    ideal = omega_tw(ctx, n, m_twists, max(f.deg_cap, g.deg_cap), prec)
    d = ideal.degree()
    fr = poly_reduce(IwaSeries(ctx, fn.a, None, prec, fn.deg_cap), ideal)
    gr = poly_reduce(IwaSeries(ctx, gn.a, None, prec, gn.deg_cap), ideal)
    mm = ctx.p ** prec
    # columns: X^k * g mod ideal, unknowns u_0..u_(d-1); then the same for
    # the extra ideal generators, reduced into the same window.  They are
    # reduced at the precision poly_reduce divides at.
    top, rm = ideal.a[:d + 1], ctx.p ** min(prec, ctx.prec)
    cols = _xpow_columns(gr.a, top, rm)
    for gen in extra_ideals:
        gr2 = poly_reduce(IwaSeries(ctx, gen.a, None, prec, gen.deg_cap), ideal)
        cols += _xpow_columns(gr2.a, top, rm)
    rows = [[cols[k][i] for k in range(len(cols))] for i in range(d)]
    rhs = fr.a[:d] + [0] * (d - len(fr.a[:d]))
    sol = linsolve.solve_mod_ppow(rows, rhs, ctx.p, prec)
    if sol is None:
        raise NoUnitWitness("no solution modulo the congruence ideal")
    x, kernel, _loss = sol
    if x[0] % ctx.p == 0:
        for gen in kernel:
            if (x[0] + gen[0]) % ctx.p != 0:
                x = [(a + b) % mm for a, b in zip(x, gen)]
                break
        else:
            raise NoUnitWitness("every solution has non-unit constant term")
    u = IwaSeries(ctx, x[:d], None, prec, d)
    # verification: f - u*g must vanish modulo the joint ideal
    wide = max(fn.deg_cap, gn.deg_cap + d)
    u_wide = IwaSeries(ctx, x[:d], None, prec, wide)
    diff = poly_reduce(IwaSeries(ctx, fn.a, None, prec, wide)
                       - u_wide * IwaSeries(ctx, gn.a, None, prec, wide), ideal)
    rem = diff.a[:d] + [0] * (d - len(diff.a[:d]))
    for j, c in enumerate(x[d:]):
        col = cols[d + j]
        for i in range(d):
            rem[i] = (rem[i] - c * col[i]) % mm
    if any(c % mm for c in rem):
        raise NoUnitWitness("verification failed")
    return u
