"""Frobenius and a Mellin inverse on O[[pi]], which the package does not call.

The Mellin transform sends [a] in O[(Z/p^(n+1))^*] to (1+pi)^a; its image
is the psi = 0 part, spanned by the (1+pi)^a with p not dividing a.  The
package reads it once, in `logmat.mellin_read`.  `mellin_inverse` solves it
from the pi-coefficients and shares no code with that read, so the tests
use it as an oracle.  The benchmark's tracer (perfbench/tracer.py) wraps
both functions here by name, so they stay until that list changes.

Series are base-valued `IwaSeries` in the variable pi, with denom_exp 0; a
w-part or a p-denominator raises ValueError.
"""

from __future__ import annotations

from padiclog import _poly
from padiclog.iwadist import InsufficientDegree, IwaSeries
from padiclog.logmat import NotInImage


def _check_base(*series):
    """Reject a w-part or a p-denominator: these maps act on O[[pi]] itself."""
    for f in series:
        if f.b is not None or f.denom_exp:
            raise ValueError("expected a base-valued series with denom_exp 0")


def frobenius(f):
    """phi(f) = f((1+pi)^p - 1), restricted to the stored truncation window:
    Y -> Y^p on the (1+pi)-basis coefficients, Y = 1+pi."""
    _check_base(f)
    p = f.ctx.p
    if f.deg_cap < p:
        raise InsufficientDegree("deg_cap < p cannot represent phi(pi)")
    m = f.modulus()
    # f = F(Y) in Y = 1+pi, and phi(f) = F(Y^p)
    bs = _poly.to_onepx_basis(f.a, m)
    spread = [0] * ((len(bs) - 1) * p + 1)
    spread[::p] = bs
    out = _poly.from_onepx_basis(spread, m, f.deg_cap)
    return IwaSeries(f.ctx, out, None, f.prec, f.deg_cap)


def mellin_inverse(h, n):
    """The level-n lam with sum lam_a (1+pi)^a = h mod (p^prec, pi^(p^(n+1))),
    as the dict {a: lam_a mod p^prec} of its nonzero coefficients, p not
    dividing a: one (1+pi)-basis change, in which psi = 0 is a zero at the
    positions divisible by p."""
    _check_base(h)
    p = h.ctx.p
    win = p ** (n + 1)
    if h.deg_cap < win:
        raise InsufficientDegree("deg_cap %d < p^(n+1) = %d" % (h.deg_cap, win))
    # the basis change returns its values reduced mod p^prec
    bs = _poly.to_onepx_basis(h.a[:win], h.modulus(), win)
    for j in range(0, win, p):
        if bs[j]:
            raise NotInImage("psi-component survives at (1+pi)^%d" % j)
    return {a: b for a, b in enumerate(bs) if a % p and b}
