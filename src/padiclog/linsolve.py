"""Linear algebra over Z/p^N.

Diagonalizes by always pivoting on a minimal-valuation entry, so the row and
column eliminations are exact unit divisions.  The pivot rule is part of the
output, since the solution and the kernel basis returned depend on it: the
first unit in row-major order over the rows and columns not yet pivoted on,
else the first entry of least valuation in that order.  How the search finds
it may change; which entry it picks may not.  Solutions come back together
with a kernel basis, which callers use to adjust representatives (e.g. to
force a unit constant term).
"""

from __future__ import annotations

from math import gcd

from padiclog._poly import _vp


def _pivot(a, free_r, free_c, p, m):
    """(row, column) of the pivot among the free rows and columns, or None
    when they are all zero.  A row is scanned for a unit entry by `e % p`;
    only a row without one, and only while no earlier row has reached
    valuation 1, has its least valuation w found, as gcd(m, row) = p^w."""
    best, least = None, m
    for i in free_r:
        row = a[i]
        for j in free_c:
            if row[j] % p:
                return i, j
        if least > p:
            g = gcd(m, *map(row.__getitem__, free_c))
            if g < least:
                least = g
                for j in free_c:
                    if row[j] % (g * p):
                        best = i, j
                        break
    return best


def solve_mod_ppow(rows, rhs, p, npow):
    """Solve A x = rhs over Z/p^npow.

    rows: list of equation rows (len = #unknowns).  Returns (x, kernel, loss)
    with kernel a list of generators of the solution lattice mod p^npow and
    loss the largest pivot valuation (the intrinsic precision cost of the
    back-substitution), or None when the system is inconsistent.

    No step reads a pivoted row or column of A again, so a row step updates
    only the free columns of the free rows.  After a pivot's row step its
    column is zero off the pivot row, so its column step would change only
    the pivot row: it updates v alone.  v is kept by columns, and column j
    of v is supported on j and the pivot columns so far.
    """
    m = p ** npow
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [[c % m for c in row] for row in rows]
    b = [c % m for c in rhs]
    # column operations tracked through v, kept by columns: x = v * y
    v = [[0] * j + [1] + [0] * (nc - j - 1) for j in range(nc)]
    pivots, support = [], []
    # rows and columns not yet pivoted on, in increasing order
    free_r, free_c = list(range(nr)), list(range(nc))
    while True:
        best = _pivot(a, free_r, free_c, p, m)
        if best is None:
            break
        pi, pj = best
        free_r.remove(pi)
        free_c.remove(pj)
        prow = a[pi]
        bv = _vp(prow[pj], p, npow)
        pbv = p ** bv
        mq = m // pbv
        uinv = pow(prow[pj] // pbv, -1, m)
        # clear the pivot column (row ops touch b as well)
        bp = b[pi]
        for i in free_r:
            row = a[i]
            if row[pj]:
                q = (row[pj] // pbv) * uinv % mq
                for j in free_c:
                    row[j] = (row[j] - q * prow[j]) % m
                b[i] = (b[i] - q * bp) % m
        # clear the pivot row (column ops touch v)
        support.append(pj)
        pcol = v[pj]
        for j in free_c:
            if prow[j]:
                q = (prow[j] // pbv) * uinv % mq
                col = v[j]
                for t in support:
                    col[t] = (col[t] - q * pcol[t]) % m
        pivots.append((pi, pj, bv, uinv))
    # consistency of untouched rows
    for i in free_r:
        if b[i]:
            return None
    x = [0] * nc
    for pi, pj, bv, uinv in pivots:
        c = b[pi]
        if c % p ** bv:
            return None
        y = (c // p ** bv) * uinv % m
        if y:
            x = [s + y * t for s, t in zip(x, v[pj])]
    x = [s % m for s in x]
    # kernel generators in y are one-hot (p^(npow - bv) at each lossy pivot,
    # then 1 at every free column), so through v each is a scaled column of v
    kernel_y = [(pj, p ** (npow - bv)) for _, pj, bv, _ in pivots if bv > 0]
    kernel_y += [(j, 1) for j in free_c]
    kernel = [[c * g % m for c in v[j]] for j, g in kernel_y]
    loss = max((bv for _, _, bv, _ in pivots), default=0)
    return x, kernel, loss
