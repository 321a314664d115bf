"""Exact p-adic coefficient arithmetic with explicit precision.

Elements live in O = Z_p or a declared quadratic extension (unramified, or
Eisenstein with uniformizer w satisfying w^2 = c*p).  Every value is a pair of
canonical residues together with the precision exponent it is known to; all
operations propagate precision by the documented rule (min of the inputs,
minus the valuation lost on division).
"""

from __future__ import annotations

import math
from fractions import Fraction

from padiclog._poly import _vp, isprime, sqrt_mod_prime

INF = math.inf

UNRAMIFIED = "unramified"
RAMIFIED = "ramified"


class PadicError(Exception):
    pass


class NonUnit(PadicError):
    pass


class NoRoot(PadicError):
    pass


class PrecisionLoss(PadicError):
    pass


class PrimeCtx:
    """Prime, working precision and optional quadratic extension.

    ext is None for O = Z_p, ("unramified", d) for O = Z_p[w]/(w^2 - d) with d
    a non-residue unit, or ("ramified", c) for w^2 = c*p with c a unit.
    """

    __slots__ = ("p", "prec", "ext")

    def __init__(self, p, prec, ext=None):
        if p < 3 or not isprime(p):
            raise ValueError("p must be an odd prime >= 3")
        if prec < 1:
            raise ValueError("prec must be >= 1")
        if ext is not None:
            kind, param = ext
            if kind == UNRAMIFIED:
                if param % p == 0 or is_qr(param, p):
                    raise ValueError("unramified parameter must be a non-residue unit")
            elif kind == RAMIFIED:
                if param % p == 0:
                    raise ValueError("ramified parameter must be a unit")
            else:
                raise ValueError("unknown extension kind %r" % (kind,))
            ext = (kind, param % p ** prec)
        self.p = p
        self.prec = prec
        self.ext = ext

    @property
    def modulus(self):
        return self.p ** self.prec

    def wsq(self):
        """w^2 as a base residue (d, or c*p), None without extension."""
        if self.ext is None:
            return None
        kind, param = self.ext
        return param if kind == UNRAMIFIED else (param * self.p) % self.modulus

    def ramified(self):
        return self.ext is not None and self.ext[0] == RAMIFIED

    def one(self, prec=None):
        return PadicElt(self, 1, 0, prec)

    def zero(self, prec=None):
        return PadicElt(self, 0, 0, prec)

    def from_int(self, n, prec=None):
        return PadicElt(self, n, 0, prec)

    def uniformizer(self):
        """p, or w in the ramified case."""
        if self.ramified():
            return PadicElt(self, 0, 1)
        return PadicElt(self, self.p, 0)

    def __eq__(self, other):
        return (isinstance(other, PrimeCtx) and self.p == other.p
                and self.prec == other.prec and self.ext == other.ext)

    def __hash__(self):
        return hash((self.p, self.prec, self.ext))

    def __repr__(self):
        return "PrimeCtx(p=%d, prec=%d, ext=%r)" % (self.p, self.prec, self.ext)


def is_qr(a, p):
    a %= p
    if a == 0:
        return True
    return pow(a, (p - 1) // 2, p) == 1


class PadicElt:
    """Element a + b*w of O known modulo p^prec (b = 0 when ext is None)."""

    __slots__ = ("ctx", "a", "b", "prec")

    def __init__(self, ctx, a, b=0, prec=None):
        if prec is None:
            prec = ctx.prec
        if prec < 0:
            prec = 0
        prec = min(prec, ctx.prec)
        m = ctx.p ** prec
        self.ctx = ctx
        self.a = a % m if m > 1 else 0
        self.b = b % m if m > 1 else 0
        self.prec = prec
        if self.b and ctx.ext is None:
            raise ValueError("second coordinate requires an extension")

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        """True when the element is indistinguishable from 0 at its precision."""
        return self.a == 0 and self.b == 0

    def val(self):
        """Valuation normalized so v(p) = 1; INF when zero at precision.

        In a ramified extension values are half-integers (v(w) = 1/2).
        """
        if self.is_zero():
            return INF
        p = self.ctx.p
        va = _vp(self.a, p, self.prec)
        if self.ctx.ext is None:
            return Fraction(va)
        vb = _vp(self.b, p, self.prec)
        if self.ctx.ramified():
            return min(Fraction(va) if self.a else INF,
                       Fraction(2 * vb + 1, 2) if self.b else INF)
        return Fraction(min(va, vb))

    def is_unit(self):
        return self.val() == 0

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicElt):
            if other.ctx != self.ctx:
                raise ValueError("mixed contexts")
            return other
        if isinstance(other, int):
            return PadicElt(self.ctx, other, 0, self.ctx.prec)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.prec, other.prec)
        return PadicElt(self.ctx, self.a + other.a, self.b + other.b, k)

    __radd__ = __add__

    def __neg__(self):
        return PadicElt(self.ctx, -self.a, -self.b, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.prec, other.prec)
        return PadicElt(self.ctx, self.a - other.a, self.b - other.b, k)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.prec, other.prec)
        if self.b == 0 and other.b == 0:
            return PadicElt(self.ctx, self.a * other.a, 0, k)
        e = self.ctx.wsq()
        a = self.a * other.a + e * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return PadicElt(self.ctx, a, b, k)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = PadicElt(self.ctx, 1, 0, self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self):
        """Multiplicative inverse; requires val = 0."""
        if self.val() != 0:
            raise NonUnit("cannot invert %r" % (self,))
        m = self.ctx.p ** self.prec
        if self.b == 0:
            return PadicElt(self.ctx, pow(self.a, -1, m), 0, self.prec)
        # (a + bw)^-1 = (a - bw) / (a^2 - e b^2)
        e = self.ctx.wsq()
        nrm = (self.a * self.a - e * self.b * self.b) % m
        ninv = pow(nrm, -1, m)
        return PadicElt(self.ctx, self.a * ninv, -self.b * ninv, self.prec)

    def divide_exact_p(self, k):
        """Divide by p^k; every coordinate must have valuation >= k.

        Costs k digits of precision (the documented division rule).
        """
        if k == 0:
            return self
        pk = self.ctx.p ** k
        if self.a % pk or self.b % pk:
            raise NonUnit("not divisible by p^%d at precision" % k)
        return PadicElt(self.ctx, self.a // pk, self.b // pk, self.prec - k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = min(self.prec, other.prec)
        m = self.ctx.p ** k
        return (self.a - other.a) % m == 0 and (self.b - other.b) % m == 0

    def __hash__(self):
        raise TypeError("PadicElt compares at joint precision; not hashable")

    def __repr__(self):
        if self.b:
            return "PadicElt(%d + %d*w mod %d^%d)" % (self.a, self.b, self.ctx.p, self.prec)
        return "PadicElt(%d mod %d^%d)" % (self.a, self.ctx.p, self.prec)

    def to_json(self):
        coords = [str(self.a)] + ([str(self.b)] if self.ctx.ext is not None else [])
        return {"p": self.ctx.p, "prec": self.prec, "coords": coords,
                "ext": list(self.ctx.ext) if self.ctx.ext else None}


def from_json(obj, ctx=None):
    if ctx is None:
        ext = tuple(obj["ext"]) if obj.get("ext") else None
        ctx = PrimeCtx(obj["p"], obj["prec"], ext)
    coords = [int(c) for c in obj["coords"]]
    b = coords[1] if len(coords) > 1 else 0
    return PadicElt(ctx, coords[0], b, obj.get("prec"))


def int_entry(c, where):
    """An integer read from JSON input: an int or a decimal string."""
    if type(c) is int or (isinstance(c, str) and c.removeprefix("-").isdecimal()):
        return int(c)
    raise ValueError("%s: expected an integer or a decimal string, got %r"
                     % (where, c))


def check_fields(obj, where, **kinds):
    """Check the JSON kind of each named field that obj has.

    A kind is "nat" (an integer >= 0), "int", "object", "array" or
    "string"; a missing field is left to the caller (KeyError or default).
    """
    if not isinstance(obj, dict):
        raise ValueError("%s: expected a JSON object" % where)
    for key, kind in kinds.items():
        if key not in obj:
            continue
        v = obj[key]
        if kind in ("nat", "int"):
            ok = type(v) is int and (kind == "int" or v >= 0)
        else:
            ok = isinstance(v, {"object": dict, "array": list, "string": str}[kind])
        if not ok:
            raise ValueError("%s: field %r must be of kind %s" % (where, key, kind))
    return obj


def inv_scaled(x):
    """(y, e) with x^(-1) = p^(-e) * y, y integral and e = ceil(val(x)).

    Works for any nonzero x, including non-units of the quadratic extension;
    the division by the p-content costs the corresponding precision.
    """
    v = x.val()
    if v is INF:
        raise NonUnit("cannot invert zero at precision")
    if v == 0:
        return x.inv(), 0
    ctx = x.ctx
    e = int(math.ceil(v))
    if x.b == 0:
        u = x.divide_exact_p(int(v))
        return u.inv(), e
    conj = PadicElt(ctx, x.a, -x.b, x.prec)
    nrm = x * conj
    nv = int(2 * v)
    unit = nrm.divide_exact_p(nv)
    y = (conj * unit.inv()).divide_exact_p(nv - e)
    return y, e


def teichmuller(ctx, a):
    """The (p-1)-st root of unity congruent to a mod p.

    Iterating x -> x^p gains one digit per step, so prec-1 steps suffice.
    """
    if a % ctx.p == 0:
        raise NonUnit("no Teichmuller lift of 0")
    m = ctx.modulus
    x = a % m
    for _ in range(ctx.prec - 1):
        nxt = pow(x, ctx.p, m)
        if nxt == x:
            break
        x = nxt
    return PadicElt(ctx, x, 0, ctx.prec)


def _sqrt_unit_base(ctx, a, prec):
    """Square root mod p^prec of a unit residue a, or None."""
    p = ctx.p
    r0 = sqrt_mod_prime(a, p)
    if r0 is None:
        return None
    # Newton: x <- x - (x^2 - a) / (2x); doubles the number of good digits.
    x, good = r0, 1
    while good < prec:
        good = min(2 * good, prec)
        m = p ** good
        x = (x - (x * x - a) * pow(2 * x, -1, m)) % m
    return x % p ** prec


def _canonical_root(r):
    """Pick the root whose first nonzero coordinate has unit residue in [1,(p-1)/2]."""
    p = r.ctx.p
    for c in (r.a, r.b):
        if c:
            u = c // p ** _vp(c, p, r.prec)
            if u % p <= (p - 1) // 2:
                return r
            return -r
    return r


def sqrt(x):
    """Canonical square root in the declared ring; NoRoot when none exists."""
    if x.is_zero():
        raise NoRoot("zero at precision has no canonical square root")
    ctx = x.ctx
    p = ctx.p
    if x.b != 0:
        raise NoRoot("square roots are only taken of base-ring values")
    v = _vp(x.a, p, x.prec)
    u = x.a // p ** v
    uprec = x.prec - v
    if uprec <= 0:
        raise NoRoot("insufficient precision to separate the unit part")
    rprec = uprec + v // 2
    if v % 2 == 0:
        r = _sqrt_unit_base(ctx, u % p ** uprec, uprec)
        if r is not None:
            return _canonical_root(PadicElt(ctx, r * p ** (v // 2), 0, rprec))
        if ctx.ext is None or ctx.ramified():
            raise NoRoot("unit part is a non-square in the base ring")
        # sqrt(u) = w * sqrt(u/d) in the unramified extension
        d = ctx.ext[1]
        r = _sqrt_unit_base(ctx, u * pow(d, -1, p ** uprec) % p ** uprec, uprec)
        if r is None:
            raise NoRoot("no square root in the declared extension")
        return _canonical_root(PadicElt(ctx, 0, r * p ** (v // 2), rprec))
    # odd valuation: need the ramified uniformizer, x = p^(v-1) * (p*u)
    if not ctx.ramified():
        raise NoRoot("odd valuation requires a ramified extension")
    c = ctx.ext[1]
    # (p^m * w * t)^2 = p^(2m+1) * c * t^2 with v = 2m+1, so t^2 = u/c
    r = _sqrt_unit_base(ctx, u * pow(c, -1, p ** uprec) % p ** uprec, uprec)
    if r is None:
        raise NoRoot("no square root in the declared ramified extension")
    return _canonical_root(PadicElt(ctx, 0, r * p ** (v // 2), rprec))
