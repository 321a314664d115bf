"""The level-n group ring and the finite-level Mellin transform on O[[pi]].

The Mellin transform sends [a] in O[(Z/p^(n+1))^*] to (1+pi)^a and
identifies the group ring with the psi = 0 part of the truncation, psi the
trace-type left inverse of phi(pi) = (1+pi)^p - 1: the part spanned by the
(1+pi)^a with p not dividing a.  It is solved exactly through the unipotent
(1+pi)-basis change: in the variable Y = 1+pi, `mellin_read` takes the
group-ring coefficients straight off the Y-coefficients, so a caller
already holding Y-coefficients (as `logmat` does) skips the basis change
and needs only the psi = 0 test, `check_psi_zero`.

Series here are `IwaSeries` read in the variable pi: base-valued, with
denom_exp 0.  A w-part or a p-denominator raises ValueError.
"""

from __future__ import annotations

from padiclog import _poly
from padiclog.iwadist import InsufficientDegree, IwaSeries
from padiclog.padic import PadicError


class NotInImage(PadicError):
    pass


def _check_base(*series):
    """Reject a w-part or a p-denominator: these maps act on O[[pi]] itself."""
    for f in series:
        if f.b is not None or f.denom_exp:
            raise ValueError("expected a base-valued series with denom_exp 0")


def frobenius(f):
    """phi(f) = f((1+pi)^p - 1), restricted to the stored truncation window.

    Nothing in the package calls it; the benchmark's tracer
    (perfbench/tracer.py) wraps it by name, so it stays until that list
    changes.
    """
    _check_base(f)
    p = f.ctx.p
    if f.deg_cap < p:
        raise InsufficientDegree("deg_cap < p cannot represent phi(pi)")
    m = f.modulus()
    g = _poly.binom_row_mod(p, p + 1, p, f.prec, m)
    g[0] = 0
    out = _poly.compose(f.a, g, m, f.deg_cap)
    return IwaSeries(f.ctx, out, None, f.prec, f.deg_cap)


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

    In the (1+pi)-power basis the transform is triangular, so this is one
    basis change followed by `mellin_read`.
    """
    _check_base(h)
    win = h.ctx.p ** (n + 1)
    if h.deg_cap < win:
        raise InsufficientDegree("deg_cap %d < p^(n+1) = %d" % (h.deg_cap, win))
    bs = _poly.to_onepx_basis(h.a[:win], h.modulus(), win)
    return mellin_read(h.ctx, n, bs, h.prec)


def mellin_read(ctx, n, bs, prec):
    """The level-n group-ring element whose Mellin transform is
    sum_j bs[j] (1+pi)^j mod p^prec, for the p^(n+1) coefficients bs.

    Positions prime to p carry the group-ring coefficients and positions
    divisible by p must vanish (the psi = 0 condition).
    """
    p = ctx.p
    m = p ** prec
    check_psi_zero(bs, p, m)
    coeffs = {j: b % m for j, b in enumerate(bs) if j % p and b % m}
    return FiniteGroupRingElt(ctx, n, coeffs, prec)


def check_psi_zero(bs, p, m):
    """The psi = 0 condition on (1+pi)-basis coefficients bs mod m: raise
    NotInImage at the first position divisible by p that is nonzero."""
    if any(bs[::p]):
        for j in range(0, len(bs), p):
            if bs[j] % m:
                raise NotInImage("psi-component survives at (1+pi)^%d" % j)
