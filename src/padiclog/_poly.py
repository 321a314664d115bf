"""Low-level helpers for truncated polynomial arithmetic over Z/p^N.

Coefficient vectors are plain int lists reduced modulo a power of p; the
series classes in cycser/iwadist wrap these with context and precision
bookkeeping.  The (1+X)-power basis transforms are exact unipotent integer
maps, which is what makes the finite-level Mellin transform invertible.
"""

from __future__ import annotations

_PASCAL_CACHE = {}


def pascal_rows(n, modulus):
    """Rows 0..n-1 of Pascal's triangle reduced mod modulus."""
    key = (n, modulus)
    rows = _PASCAL_CACHE.get(key)
    if rows is not None:
        return rows
    rows = [[1]]
    for i in range(1, n):
        prev = rows[-1]
        row = [1] * (i + 1)
        for j in range(1, i):
            row[j] = (prev[j - 1] + prev[j]) % modulus
        rows.append(row)
    _PASCAL_CACHE[key] = rows
    return rows


def _vp(n, p, cap):
    """p-adic valuation of the integer n, capped at cap (returns cap for 0)."""
    if n == 0:
        return cap
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def vec_add(xs, ys, m):
    n = max(len(xs), len(ys))
    out = [0] * n
    for i, x in enumerate(xs):
        out[i] = x
    for i, y in enumerate(ys):
        out[i] = (out[i] + y) % m
    return out


def vec_neg(xs, m):
    return [(-x) % m for x in xs]


def vec_scale(xs, c, m):
    return [(x * c) % m for x in xs]


def vec_mul(xs, ys, m, cap):
    """Convolution truncated to degree < cap."""
    out = [0] * min(cap, len(xs) + len(ys) - 1 if xs and ys else 0)
    if not out:
        return []
    for i, x in enumerate(xs):
        if x == 0 or i >= cap:
            continue
        jmax = min(len(ys), cap - i)
        for j in range(jmax):
            y = ys[j]
            if y:
                out[i + j] = (out[i + j] + x * y) % m
    return out


def vec_trim(xs):
    n = len(xs)
    while n and xs[n - 1] == 0:
        n -= 1
    return xs[:n]


def to_onepx_basis(coeffs, m, n=None):
    """Coefficients over {X^i} -> coefficients over {(1+X)^j}.

    X^i = sum_j C(i,j) (-1)^(i-j) (1+X)^j, an exact unipotent change of basis.
    """
    if n is None:
        n = len(coeffs)
    rows = pascal_rows(max(n, len(coeffs)), m)
    out = [0] * n
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        row = rows[i]
        j0 = min(i, n - 1)
        sign = 1 if (i - j0) % 2 == 0 else -1
        for j in range(j0, -1, -1):
            out[j] = (out[j] + sign * row[j] * c) % m
            sign = -sign
    return out


def from_onepx_basis(bs, m, n=None):
    """Inverse of to_onepx_basis: (1+X)^j = sum_i C(j,i) X^i."""
    if n is None:
        n = len(bs)
    rows = pascal_rows(max(n, len(bs)), m)
    out = [0] * n
    for j, b in enumerate(bs):
        if b == 0:
            continue
        row = rows[j]
        for i in range(min(j, n - 1) + 1):
            out[i] = (out[i] + row[i] * b) % m
    return out


def binom_row_mod(e, length, p, npow, m):
    """[C(e,0), C(e,1), ..., C(e,length-1)] mod m = p^npow, for any integer e >= 0.

    Tracks the p-valuation of the running binomial separately so that the
    divisions by i are exact unit divisions mod m.
    """
    out = [1 % m] + [0] * (length - 1)
    u, t = 1 % m, 0
    for i in range(1, length):
        num = e - i + 1
        if num <= 0:
            break
        while num % p == 0:
            num //= p
            t += 1
        den = i
        while den % p == 0:
            den //= p
            t -= 1
        u = (u * (num % m) * pow(den % m, -1, m)) % m
        out[i] = (u * pow(p, t, m)) % m if t < npow else 0
    return out


def onepx_pow(e, cap, p, npow):
    """(1+X)^e truncated to degree < cap, coefficients mod p^npow."""
    m = p ** npow
    return binom_row_mod(e, min(e + 1, cap), p, npow, m) + \
        [0] * max(0, cap - e - 1)


def poly_divmod_top(f, g, m, p, npow):
    """Long division f = q*g + r by the leading coefficient of g.

    Requires the leading coefficient of g to be a unit mod p.  Exact over
    Z/m; returns (q, r).
    """
    g = vec_trim(g)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    lead = g[-1]
    if lead % p == 0:
        raise ValueError("leading coefficient is not a unit")
    linv = pow(lead, -1, m)
    r = list(f)
    dg = len(g) - 1
    if len(r) - 1 < dg:
        return [], r
    q = [0] * (len(r) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] % m
        if c == 0:
            continue
        qc = (c * linv) % m
        q[i - dg] = qc
        for j, gj in enumerate(g):
            r[i - dg + j] = (r[i - dg + j] - qc * gj) % m
    return q, vec_trim(r)


def series_div_unit(f, g, m, cap):
    """Power-series division f/g where g[0] is a unit mod m; exact to cap."""
    ginv0 = pow(g[0], -1, m)
    out = [0] * cap
    for i in range(cap):
        acc = f[i] if i < len(f) else 0
        for j in range(1, min(i, len(g) - 1) + 1):
            gj = g[j]
            if gj and out[i - j]:
                acc -= gj * out[i - j]
        out[i] = (acc * ginv0) % m
    return out
