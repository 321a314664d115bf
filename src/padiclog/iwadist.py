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
w-part, and every divisor is base-valued.  Precisions follow coefficientwise
fixed-point arithmetic (see `_divmod_top`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from padiclog import _poly, linsolve
from padiclog._poly import _vp
from padiclog.padic import (NonUnit, PadicElt, PadicError, PrecisionLoss,
                            PrimeCtx, check_fields, int_entry)

INF = float("inf")


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
    def gen(cls, ctx, deg_cap, prec=None):
        return cls(ctx, [0, 1] + [0] * (deg_cap - 2), None, prec, deg_cap)

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
        for i in range(self.deg_cap - 1, -1, -1):
            if self.a[i] or (self.b and self.b[i]):
                return i
        return -1

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
        m = p ** prec
        vals = []
        g = gcd(*[c % m for c in self.a])
        if g:
            vals.append(Fraction(_vp(g, p, prec)))
        g = gcd(*[c % m for c in self.b]) if self.b else 0
        if g:
            half = Fraction(1, 2) if self.ctx.ramified() else 0
            vals.append(Fraction(_vp(g, p, prec)) + half)
        return min(vals, default=INF)

    def normalize(self):
        """Strip provable common p-content from the stored coefficients."""
        if self.denom_exp == 0:
            return self
        v = self.min_val()
        s = min(self.denom_exp, int(v) if v is not INF else self.prec)
        if s <= 0:
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

    def __add__(self, other):
        if isinstance(other, (int, PadicElt)):
            other = IwaSeries.const(self.ctx, other, self.deg_cap, self.prec)
        x, y = self._aligned(other)
        prec = min(x.prec, y.prec)
        cap = min(x.deg_cap, y.deg_cap)
        m = x.ctx.p ** prec
        a = _poly.vec_add(x.a[:cap], y.a[:cap], m)
        b = None
        if x.b or y.b:
            b = _poly.vec_add(x.b[:cap] if x.b else [0] * cap,
                              y.b[:cap] if y.b else [0] * cap, m)
        return IwaSeries._reduced(x.ctx, a, b, prec, cap, x.denom_exp,
                                  max(x.growth, y.growth))

    __radd__ = __add__

    def __neg__(self):
        m = self.modulus()
        return IwaSeries._reduced(self.ctx, _poly.vec_neg(self.a, m),
                                  _poly.vec_neg(self.b, m) if self.b else None,
                                  self.prec, self.deg_cap, self.denom_exp, self.growth)

    def __sub__(self, other):
        if isinstance(other, (int, PadicElt)):
            other = IwaSeries.const(self.ctx, other, self.deg_cap, self.prec)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.modulus()
            return IwaSeries._reduced(
                self.ctx, _poly.vec_scale(self.a, other, m),
                _poly.vec_scale(self.b, other, m) if self.b else None,
                self.prec, self.deg_cap, self.denom_exp, self.growth)
        if isinstance(other, PadicElt):
            other = IwaSeries.const(self.ctx, other, self.deg_cap)
        prec = min(self.prec, other.prec)
        cap = min(self.deg_cap, other.deg_cap)
        m = self.ctx.p ** prec
        xa, ya = self.a, other.a
        a = _poly.vec_mul(xa, ya, m, cap)
        b = None
        if self.b or other.b:
            e = self.ctx.wsq()
            if e is None:
                raise ValueError("extension coefficients without an extension")
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

    def divide_exact_p(self, k):
        """Divide the value by p^k.  Uses denom_exp first, then exact division."""
        if k <= self.denom_exp:
            return IwaSeries._reduced(self.ctx, self.a, self.b, self.prec,
                                      self.deg_cap, self.denom_exp - k,
                                      self.growth)
        k = k - self.denom_exp
        pk = self.ctx.p ** k
        if any(c % pk for c in self.a) or (self.b and any(c % pk for c in self.b)):
            raise PrecisionLoss("series not divisible by p^%d at precision" % k)
        return IwaSeries(self.ctx, [c // pk for c in self.a],
                         [c // pk for c in self.b] if self.b else None,
                         self.prec - k, self.deg_cap, 0, self.growth)

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


def phi_cyc(ctx, n, deg_cap, prec=None):
    """Phi_n = omega_n / omega_(n-1) = sum_{j<p} (1+X)^(j p^(n-1)); Phi_0 = X."""
    if n == 0:
        return IwaSeries.gen(ctx, deg_cap, prec)
    deg = ctx.p ** n - ctx.p ** (n - 1)
    if deg_cap <= deg:
        raise InsufficientDegree("deg_cap %d cannot hold Phi_%d" % (deg_cap, n))
    np_ = prec if prec is not None else ctx.prec
    bs = [0] * (deg + 1)
    bs[::ctx.p ** (n - 1)] = [1] * ctx.p
    return IwaSeries(ctx, _poly.from_onepx_basis(bs, ctx.p ** np_, deg_cap),
                     None, np_, deg_cap)


def twist(f, j):
    """Tw^j: the substitution X -> u^j (1+X) - 1."""
    m = f.modulus()
    c = pow(ucyc(f.ctx), j, m)
    g = [c - 1, c]
    b = _poly.compose(f.b, g, m, f.deg_cap) if f.b else None
    return IwaSeries(f.ctx, _poly.compose(f.a, g, m, f.deg_cap), b, f.prec,
                     f.deg_cap, f.denom_exp, f.growth)


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


def phi_tw(ctx, n, m, deg_cap, prec=None):
    return twisted_product(ctx, phi_cyc(ctx, n, deg_cap, prec), m)


def delta(ctx, m, deg_cap, prec=None):
    return twisted_product(ctx, IwaSeries.gen(ctx, deg_cap, prec), m)


def halflog(ctx, sign, m, n_trunc, deg_cap, prec=None):
    """Truncated Pollack half-logarithm prod_{i<m} Tw^(-i) prod_{k even/odd <= n} Phi_k/p.

    The stored series is the integral product of the Phi's; the p-denominator
    is carried in denom_exp and the growth tag is m/2.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    ks = [k for k in range(1, n_trunc + 1) if (k % 2 == 0) == (sign == "+")]
    acc = IwaSeries.const(ctx, 1, deg_cap, prec)
    for k in ks:
        acc = acc * phi_cyc(ctx, k, deg_cap, prec)
    out = twisted_product(ctx, acc, m)
    out.denom_exp = m * len(ks)
    out.growth = Fraction(m, 2)
    return out


def log_tw(ctx, m, n_trunc, deg_cap, prec=None):
    """Truncation of prod_{i<m} Tw^(-i)(log_p) = delta_m * prod Phi_k / p^(mn)."""
    acc = IwaSeries.gen(ctx, deg_cap, prec)
    for k in range(1, n_trunc + 1):
        acc = acc * phi_cyc(ctx, k, deg_cap, prec)
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

    def to_json(self):
        return {"t": self.t, "j": self.j}


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


def divide_exact(f, g, mode=None):
    """H with f = g*H at the stored truncation, or NotDivisible.

    Polynomial inputs (top coefficient visible and unit) are divided from the
    top; otherwise a unit low-order pivot allows bottom-up power-series
    division.  The divisor must be base-valued.
    """
    if g.is_zero():
        raise NotDivisible("division by zero at precision")
    if g.has_ext():
        raise NotDivisible("divisor must be base-valued")
    dnum = f.denom_exp - g.denom_exp
    x = f.rescale(-dnum) if dnum < 0 else f
    denom_out = max(dnum, 0)
    growth = max(Fraction(0), f.growth - g.growth)
    dg = g.degree()
    lead_unit = g.coeff(dg).is_unit()
    cap = min(x.deg_cap, g.deg_cap)
    if mode is None:
        mode = "poly" if (lead_unit and x.degree() + 1 < cap) else "series"
    if mode == "poly" and lead_unit:
        q, r = _divmod_top(x, g)
        if not r.is_zero():
            raise NotDivisible("nonzero remainder at precision")
        q.denom_exp = denom_out
        q.growth = growth
        return q
    # series mode: the lowest nonzero coefficient of g must be a unit
    p, xp, gp = x.ctx.p, x.coeff_prec(), g.coeff_prec()
    ordg = next((i for i, c in enumerate(g.a) if c % p ** gp), None)
    if ordg is None:
        raise NotDivisible("no unit pivot available")
    if g.a[ordg] % p == 0:
        raise NotDivisible("low-order pivot is not a unit at precision")
    if any(c % p ** xp for v in (x.a, x.b or ()) for c in v[:ordg]):
        raise NotDivisible("X-order of numerator is smaller than divisor")
    n = cap - ordg
    pm = min(xp, gp)

    def solve(v):
        return (_poly.series_div_unit(v[ordg:], g.a[ordg:], p ** pm, n)
                if n > 0 else [])

    return IwaSeries(x.ctx, solve(x.a), solve(x.b) if x.b else None,
                     pm if n > 0 else x.ctx.prec, n, denom_out, growth)


def is_unit(f):
    """Unit of the truncated Iwasawa algebra: integral with unit constant term."""
    g = f.normalize()
    return g.denom_exp == 0 and g.coeff(0).is_unit()


def solve_series_div(y, g, out_len=None):
    """q with g*q = y on the stored window, by exact linear solving.

    Handles divisors whose stored coefficients have mixed valuations (where
    pivot-based division would lose precision coefficient by coefficient);
    the minimal-valuation pivoting keeps the loss to the intrinsic amount,
    reported through the returned precision.  Divisor must be base-valued.
    """
    if g.has_ext():
        raise NotDivisible("divisor must be base-valued")
    ctx = y.ctx
    prec = min(y.prec, g.prec)
    m = ctx.p ** prec
    dg = g.degree()
    if dg < 0:
        raise NotDivisible("division by zero at precision")
    cap = y.deg_cap
    if out_len is None:
        out_len = cap
    dshift = y.denom_exp - g.denom_exp
    growth = max(Fraction(0), y.growth - g.growth)
    # fast path: exact polynomial division when the leading coefficient is a
    # unit and the remainder vanishes (covers images of polynomial inputs)
    if prec > 0 and g.a[dg] % ctx.p and y.degree() + 1 < cap:
        quot, rem = _divmod_top(IwaSeries(ctx, y.a, y.b, prec, cap),
                                IwaSeries(ctx, g.a, None, prec, g.deg_cap))
        if rem.is_zero():
            quot.denom_exp = max(dshift, 0)
            quot.growth = growth
            return quot.times_p(-dshift) if dshift < 0 else quot
    dy = y.degree()
    widths = [out_len]
    if 0 <= dy < cap - 1 and dy - dg + 1 < out_len:
        # polynomial-sized system first: much smaller when the quotient is
        # an exact polynomial (images of bounded inputs)
        widths.insert(0, max(dy - dg + 1, 1))
    last_exc = None
    for width in widths:
        rows = [[(g.a[i - j] if 0 <= i - j <= dg and i - j < g.deg_cap else 0)
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
