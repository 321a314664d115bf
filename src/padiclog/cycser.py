"""The ring O[[pi]] at finite truncation with Frobenius, psi and Gamma-action.

phi(pi) = (1+pi)^p - 1, the trace-type left inverse psi acts on the
(1+pi)-power basis by (1+pi)^a -> (1+pi)^(a/p) when p | a and kills the rest,
and Gamma acts through pi -> (1+pi)^a - 1.  The finite-level Mellin transform
identifies group-ring elements over (Z/p^(n+1))^* with the psi = 0 part of
the truncation, via the exact unipotent (1+pi)-basis change.

Series here are `IwaSeries` read in the variable pi: base-valued, with
denom_exp 0.  A w-part or a p-denominator raises ValueError.
"""

from __future__ import annotations

from padiclog import _poly
from padiclog.iwadist import InsufficientDegree, IwaSeries
from padiclog.padic import PadicError, PrecisionLoss


class NotInImage(PadicError):
    pass


def _check_base(*series):
    """Reject a w-part or a p-denominator: these maps act on O[[pi]] itself."""
    for f in series:
        if f.b is not None or f.denom_exp:
            raise ValueError("expected a base-valued series with denom_exp 0")


def compose(f, g):
    """f(g) by Horner; the truncation-degree reference oracle."""
    _check_base(f, g)
    cap = min(f.deg_cap, g.deg_cap)
    prec = min(f.prec, g.prec)
    out = IwaSeries.zero(f.ctx, cap, prec)
    for i in range(f.degree(), -1, -1):
        out = out * g + IwaSeries.const(f.ctx, f.a[i], cap, prec)
    return out


def q_series(ctx, deg_cap, prec=None):
    """q = phi(pi)/pi = ((1+pi)^p - 1)/pi, an exact polynomial of degree p-1."""
    np_ = prec if prec is not None else ctx.prec
    m = ctx.p ** np_
    row = _poly.pascal_rows(ctx.p + 1, m)[ctx.p]
    return IwaSeries(ctx, list(row[1:]), None, np_, deg_cap)


def xi_series(ctx, deg_cap, prec=None):
    """xi = p/(q - pi^(p-1)), a unit of the truncated ring."""
    q = q_series(ctx, deg_cap, prec)
    m = ctx.p ** q.prec
    den = list(q.a)
    den[ctx.p - 1] = (den[ctx.p - 1] - 1) % m
    # every coefficient of q - pi^(p-1) carries a factor p, so xi = 1/(den/p)
    if any(c % ctx.p for c in den):
        raise PrecisionLoss("q - pi^(p-1) is not divisible by p")
    den = [c // ctx.p for c in den]
    out = _poly.series_div_unit([1], den, ctx.p ** (q.prec - 1), deg_cap)
    return IwaSeries(ctx, out, None, q.prec - 1, deg_cap)


def _substitute(f, e):
    """f((1+pi)^e - 1) in the stored truncation window."""
    _check_base(f)
    m = f.modulus()
    g = _poly.binom_row_mod(e, min(e + 1, f.deg_cap), f.ctx.p, f.prec, m)
    g[0] = 0
    out = _poly.compose(f.a, g, m, f.deg_cap)
    return IwaSeries(f.ctx, out, None, f.prec, f.deg_cap)


def frobenius(f):
    """phi(f) = f((1+pi)^p - 1), restricted to the stored truncation window."""
    if f.deg_cap < f.ctx.p:
        raise InsufficientDegree("deg_cap < p cannot represent phi(pi)")
    return _substitute(f, f.ctx.p)


def psi(f):
    """Left inverse of phi: keeps (1+pi)^a with p | a and contracts a -> a/p."""
    _check_base(f)
    m = f.modulus()
    bs = _poly.to_onepx_basis(f.a, m)
    contracted = [0] * f.deg_cap
    for j in range(0, len(bs), f.ctx.p):
        contracted[j // f.ctx.p] = bs[j]
    out = _poly.from_onepx_basis(contracted, m, f.deg_cap)
    return IwaSeries(f.ctx, out, None, f.prec, f.deg_cap)


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
    return IwaSeries(lam.ctx, out, None, lam.prec, deg_cap)


def mellin_inverse(h, n):
    """Solve mellin(lam) = h mod (p^prec, pi^(p^(n+1))).

    In the (1+pi)-power basis the transform is triangular: positions prime to
    p carry the group-ring coefficients and positions divisible by p must
    vanish (the psi = 0 condition).
    """
    _check_base(h)
    p = h.ctx.p
    win = p ** (n + 1)
    if h.deg_cap < win:
        raise InsufficientDegree("deg_cap %d < p^(n+1) = %d" % (h.deg_cap, win))
    m = h.modulus()
    bs = _poly.to_onepx_basis(h.a[:win], m, win)
    coeffs = {}
    for j, b in enumerate(bs):
        if j % p == 0:
            if b % m:
                raise NotInImage("psi-component survives at (1+pi)^%d" % j)
        elif b:
            coeffs[j] = b
    return FiniteGroupRingElt(h.ctx, n, coeffs, h.prec)
