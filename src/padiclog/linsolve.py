"""Linear algebra over Z/p^N.

Diagonalizes by always pivoting on a minimal-valuation entry, so the row and
column eliminations are exact unit divisions.  Solutions come back together
with a kernel basis, which callers use to adjust representatives (e.g. to
force a unit constant term).
"""

from __future__ import annotations

from padiclog._poly import _vp


def solve_mod_ppow(rows, rhs, p, npow):
    """Solve A x = rhs over Z/p^npow.

    rows: list of equation rows (len = #unknowns).  Returns (x, kernel, loss)
    with kernel a list of generators of the solution lattice mod p^npow and
    loss the largest pivot valuation (the intrinsic precision cost of the
    back-substitution), or None when the system is inconsistent.
    """
    m = p ** npow
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [[c % m for c in row] for row in rows]
    b = [c % m for c in rhs]
    # column operations tracked through v: x = v * y
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    pivots = []
    # rows and columns not yet pivoted on, in increasing order
    free_r, free_c = list(range(nr)), list(range(nc))
    while True:
        best, bv = None, npow
        for i in free_r:
            row = a[i]
            for j in free_c:
                e = row[j]
                if e:
                    w = _vp(e, p, npow)
                    if w < bv:
                        best, bv = (i, j), w
                        if w == 0:
                            break
            if best and bv == 0:
                break
        if best is None:
            break
        pi, pj = best
        free_r.remove(pi)
        free_c.remove(pj)
        piv = a[pi][pj]
        unit = piv // p ** bv
        uinv = pow(unit, -1, m)
        # clear the pivot column (row ops touch b as well)
        for i in range(nr):
            if i == pi or a[i][pj] == 0:
                continue
            q = ((a[i][pj] // p ** bv) * uinv) % (m // p ** bv)
            for j in range(nc):
                a[i][j] = (a[i][j] - q * a[pi][j]) % m
            b[i] = (b[i] - q * b[pi]) % m
        # clear the pivot row (column ops touch v)
        for j in range(nc):
            if j == pj or a[pi][j] == 0:
                continue
            q = ((a[pi][j] // p ** bv) * uinv) % (m // p ** bv)
            for i in range(nr):
                a[i][j] = (a[i][j] - q * a[i][pj]) % m
            for i in range(nc):
                v[i][j] = (v[i][j] - q * v[i][pj]) % m
        pivots.append((pi, pj, bv, uinv))
    # consistency of untouched rows
    for i in free_r:
        if b[i] % m:
            return None
    y = [0] * nc
    for pi, pj, bv, uinv in pivots:
        c = b[pi]
        if c % p ** bv:
            return None
        y[pj] = ((c // p ** bv) * uinv) % m
    x = [sum(v[i][j] * y[j] for j in range(nc)) % m for i in range(nc)]
    # kernel generators in y are one-hot (p^(npow - bv) at each lossy pivot,
    # then 1 at every free column), so through v each is a scaled column of v
    kernel_y = [(pj, p ** (npow - bv)) for _, pj, bv, _ in pivots if bv > 0]
    kernel_y += [(j, 1) for j in free_c]
    kernel = [[v[i][j] * g % m for i in range(nc)] for j, g in kernel_y]
    loss = max((bv for _, _, bv, _ in pivots), default=0)
    return x, kernel, loss
