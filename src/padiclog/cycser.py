"""The ring O[[pi]] at finite truncation with Frobenius, psi and Gamma-action.

phi(pi) = (1+pi)^p - 1, the trace-type left inverse psi acts on the
(1+pi)-power basis by (1+pi)^a -> (1+pi)^(a/p) when p | a and kills the rest,
and Gamma acts through pi -> (1+pi)^a - 1.  The finite-level Mellin transform
identifies group-ring elements over (Z/p^(n+1))^* with the psi = 0 part of
the truncation, via the exact unipotent (1+pi)-basis change.
"""

from __future__ import annotations

from padiclog import _poly
from padiclog.padic import PadicElt, PadicError, PrecisionLoss


class InsufficientDegree(PrecisionLoss):
    pass


class NotInImage(PadicError):
    pass


class PiSeries:
    """Truncated element of O[[pi]]; base-ring coefficients, uniform precision."""

    __slots__ = ("ctx", "ints", "prec", "deg_cap")

    def __init__(self, ctx, ints, prec=None, deg_cap=None):
        if prec is None:
            prec = ctx.prec
        if deg_cap is None:
            deg_cap = len(ints)
        m = ctx.p ** prec
        ints = [c % m for c in ints[:deg_cap]]
        ints += [0] * (deg_cap - len(ints))
        self.ctx = ctx
        self.ints = ints
        self.prec = prec
        self.deg_cap = deg_cap

    # -- construction helpers ---------------------------------------------

    @classmethod
    def zero(cls, ctx, deg_cap, prec=None):
        return cls(ctx, [0] * deg_cap, prec, deg_cap)

    @classmethod
    def const(cls, ctx, c, deg_cap, prec=None):
        return cls(ctx, [c] + [0] * (deg_cap - 1), prec, deg_cap)

    @classmethod
    def pi(cls, ctx, deg_cap, prec=None):
        return cls(ctx, [0, 1] + [0] * (deg_cap - 2), prec, deg_cap)

    @classmethod
    def one_plus_pi_pow(cls, ctx, e, deg_cap, prec=None):
        p = ctx.p
        np_ = prec if prec is not None else ctx.prec
        return cls(ctx, _poly.onepx_pow(e, deg_cap, p, np_), np_, deg_cap)

    def modulus(self):
        return self.ctx.p ** self.prec

    def coeff(self, i):
        return PadicElt(self.ctx, self.ints[i] if i < self.deg_cap else 0, 0, self.prec)

    def is_zero(self):
        return all(c == 0 for c in self.ints)

    def degree(self):
        """Largest index with a nonzero stored coefficient, or -1."""
        for i in range(self.deg_cap - 1, -1, -1):
            if self.ints[i]:
                return i
        return -1

    # -- ring operations ----------------------------------------------------

    def _join(self, other):
        if not isinstance(other, PiSeries):
            raise TypeError("expected PiSeries")
        if other.ctx.p != self.ctx.p:
            raise ValueError("mixed primes")
        return min(self.prec, other.prec), min(self.deg_cap, other.deg_cap)

    def __add__(self, other):
        prec, cap = self._join(other)
        m = self.ctx.p ** prec
        out = _poly.vec_add(self.ints[:cap], other.ints[:cap], m)
        return PiSeries(self.ctx, out, prec, cap)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        m = self.modulus()
        return PiSeries(self.ctx, _poly.vec_neg(self.ints, m), self.prec, self.deg_cap)

    def __mul__(self, other):
        if isinstance(other, int):
            return PiSeries(self.ctx, _poly.vec_scale(self.ints, other, self.modulus()),
                            self.prec, self.deg_cap)
        prec, cap = self._join(other)
        m = self.ctx.p ** prec
        out = _poly.vec_mul(self.ints, other.ints, m, cap)
        return PiSeries(self.ctx, out, prec, cap)

    __rmul__ = __mul__

    def __eq__(self, other):
        prec, cap = self._join(other)
        m = self.ctx.p ** prec
        return all((x - y) % m == 0 for x, y in zip(self.ints[:cap], other.ints[:cap]))

    def divide_exact_p(self, k):
        """Divide every coefficient by p^k, losing k digits of precision."""
        if k == 0:
            return self
        pk = self.ctx.p ** k
        if any(c % pk for c in self.ints):
            raise PrecisionLoss("series is not divisible by p^%d" % k)
        return PiSeries(self.ctx, [c // pk for c in self.ints], self.prec - k, self.deg_cap)

    def to_json(self):
        return {"var": "pi", "deg_cap": self.deg_cap, "prec": self.prec,
                "p": self.ctx.p, "coeffs": [str(c) for c in self.ints]}

    def __repr__(self):
        return "PiSeries(p=%d, deg_cap=%d, prec=%d)" % (self.ctx.p, self.deg_cap, self.prec)


def compose(f, g):
    """f(g) by Horner; the truncation-degree reference oracle."""
    cap = min(f.deg_cap, g.deg_cap)
    prec = min(f.prec, g.prec)
    out = PiSeries.zero(f.ctx, cap, prec)
    for i in range(f.degree(), -1, -1):
        out = out * g + PiSeries.const(f.ctx, f.ints[i], cap, prec)
    return out


def q_series(ctx, deg_cap, prec=None):
    """q = phi(pi)/pi = ((1+pi)^p - 1)/pi, an exact polynomial of degree p-1."""
    np_ = prec if prec is not None else ctx.prec
    m = ctx.p ** np_
    row = _poly.pascal_rows(ctx.p + 1, m)[ctx.p]
    return PiSeries(ctx, list(row[1:]), np_, deg_cap)


def xi_series(ctx, deg_cap, prec=None):
    """xi = p/(q - pi^(p-1)), a unit of the truncated ring."""
    q = q_series(ctx, deg_cap, prec)
    m = ctx.p ** q.prec
    den = list(q.ints)
    den[ctx.p - 1] = (den[ctx.p - 1] - 1) % m
    # every coefficient of q - pi^(p-1) carries a factor p, so xi = 1/(den/p)
    if any(c % ctx.p for c in den):
        raise PrecisionLoss("q - pi^(p-1) is not divisible by p")
    den = [c // ctx.p for c in den]
    out = _poly.series_div_unit([1], den, ctx.p ** (q.prec - 1), deg_cap)
    return PiSeries(ctx, out, q.prec - 1, deg_cap)


def _substitute(f, e):
    """f((1+pi)^e - 1) in the stored truncation window."""
    m = f.modulus()
    g = _poly.binom_row_mod(e, min(e + 1, f.deg_cap), f.ctx.p, f.prec, m)
    g[0] = 0
    out = _poly.compose(f.ints, g, m, f.deg_cap)
    return PiSeries(f.ctx, out, f.prec, f.deg_cap)


def frobenius(f):
    """phi(f) = f((1+pi)^p - 1), restricted to the stored truncation window."""
    if f.deg_cap < f.ctx.p:
        raise InsufficientDegree("deg_cap < p cannot represent phi(pi)")
    return _substitute(f, f.ctx.p)


def psi(f):
    """Left inverse of phi: keeps (1+pi)^a with p | a and contracts a -> a/p."""
    m = f.modulus()
    bs = _poly.to_onepx_basis(f.ints, m)
    contracted = [0] * f.deg_cap
    for j in range(0, len(bs), f.ctx.p):
        contracted[j // f.ctx.p] = bs[j]
    out = _poly.from_onepx_basis(contracted, m, f.deg_cap)
    return PiSeries(f.ctx, out, f.prec, f.deg_cap)


def gamma_act(a, f):
    """The Gamma-action pi -> (1+pi)^a - 1 for an integer a coprime to p.

    a is a positive integer representative of the unit (take the canonical
    residue when acting by an element given mod p^N).
    """
    if a < 1:
        raise ValueError("gamma_act takes a positive representative")
    if a % f.ctx.p == 0:
        raise ValueError("gamma_act needs a unit exponent")
    return _substitute(f, a)


class FiniteGroupRingElt:
    """Element of O[(Z/p^(n+1))^*], the level-n quotient of the Iwasawa algebra."""

    __slots__ = ("ctx", "level", "prec", "coeffs")

    def __init__(self, ctx, level, coeffs=None, prec=None):
        if prec is None:
            prec = ctx.prec
        self.ctx = ctx
        self.level = level
        self.prec = prec
        m = ctx.p ** prec
        self.coeffs = {}
        if coeffs:
            q = ctx.p ** (level + 1)
            for a, c in coeffs.items():
                a %= q
                if a % ctx.p == 0:
                    raise ValueError("index %d is not a unit mod p^%d" % (a, level + 1))
                c %= m
                if c:
                    self.coeffs[a] = c

    def group_order(self):
        p = self.ctx.p
        return (p - 1) * p ** self.level

    @classmethod
    def delta(cls, ctx, level, a, c=1, prec=None):
        """c times the group element indexed by a."""
        return cls(ctx, level, {a: c}, prec)

    def __add__(self, other):
        assert self.level == other.level
        prec = min(self.prec, other.prec)
        m = self.ctx.p ** prec
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = (out.get(a, 0) + c) % m
        return FiniteGroupRingElt(self.ctx, self.level, out, prec)

    def __mul__(self, other):
        assert self.level == other.level
        prec = min(self.prec, other.prec)
        m = self.ctx.p ** prec
        q = self.ctx.p ** (self.level + 1)
        out = {}
        for a, c in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                k = a * a2 % q
                out[k] = (out.get(k, 0) + c * c2) % m
        return FiniteGroupRingElt(self.ctx, self.level, out, prec)

    def __eq__(self, other):
        if self.level != other.level:
            return False
        prec = min(self.prec, other.prec)
        m = self.ctx.p ** prec
        keys = set(self.coeffs) | set(other.coeffs)
        return all((self.coeffs.get(k, 0) - other.coeffs.get(k, 0)) % m == 0 for k in keys)

    def to_json(self):
        return {"level": self.level, "p": self.ctx.p, "prec": self.prec,
                "coeffs": {str(a): str(c) for a, c in sorted(self.coeffs.items())}}

    def __repr__(self):
        return "FiniteGroupRingElt(level=%d, %d terms)" % (self.level, len(self.coeffs))


def mellin(lam, deg_cap=None):
    """lam -> sum lam_a (1+pi)^a; lands in the psi = 0 part."""
    q = lam.ctx.p ** (lam.level + 1)
    if deg_cap is None:
        deg_cap = q
    bs = [lam.coeffs.get(a, 0) for a in range(q)]
    out = _poly.from_onepx_basis(bs, lam.ctx.p ** lam.prec, deg_cap)
    return PiSeries(lam.ctx, out, lam.prec, deg_cap)


def mellin_inverse(h, n):
    """Solve mellin(lam) = h mod (p^prec, pi^(p^(n+1))).

    In the (1+pi)-power basis the transform is triangular: positions prime to
    p carry the group-ring coefficients and positions divisible by p must
    vanish (the psi = 0 condition).
    """
    p = h.ctx.p
    win = p ** (n + 1)
    if h.deg_cap < win:
        raise InsufficientDegree("deg_cap %d < p^(n+1) = %d" % (h.deg_cap, win))
    m = h.modulus()
    bs = _poly.to_onepx_basis(h.ints[:win], m, win)
    coeffs = {}
    for j, b in enumerate(bs):
        if j % p == 0:
            if b % m:
                raise NotInImage("psi-component survives at (1+pi)^%d" % j)
        elif b:
            coeffs[j] = b
    return FiniteGroupRingElt(h.ctx, n, coeffs, h.prec)
