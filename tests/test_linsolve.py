"""`linsolve.solve_mod_ppow` against the elimination it replaced.

`ref_solve` is the solver as it stood before its pivot search tested units
by `e % p` and its column step stopped sweeping A: one valuation per
nonzero entry, and every row and column operation over the whole matrix.
The pivot rule is meant to be unchanged, so on every system both must
return the same (x, kernel, loss), or both None.  Each solution is also
checked directly: A x = b and A g = 0 for every kernel generator g.
"""

import random

import pytest

from padiclog.linsolve import solve_mod_ppow


def vp(n, p, cap):
    if n == 0:
        return cap
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def ref_solve(rows, rhs, p, npow):
    m = p ** npow
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [[c % m for c in row] for row in rows]
    b = [c % m for c in rhs]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    pivots = []
    free_r, free_c = list(range(nr)), list(range(nc))
    while True:
        best, bv = None, npow
        for i in free_r:
            row = a[i]
            for j in free_c:
                e = row[j]
                if e:
                    w = vp(e, p, npow)
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
        uinv = pow(a[pi][pj] // p ** bv, -1, m)
        for i in range(nr):
            if i == pi or a[i][pj] == 0:
                continue
            q = ((a[i][pj] // p ** bv) * uinv) % (m // p ** bv)
            for j in range(nc):
                a[i][j] = (a[i][j] - q * a[pi][j]) % m
            b[i] = (b[i] - q * b[pi]) % m
        for j in range(nc):
            if j == pj or a[pi][j] == 0:
                continue
            q = ((a[pi][j] // p ** bv) * uinv) % (m // p ** bv)
            for i in range(nr):
                a[i][j] = (a[i][j] - q * a[i][pj]) % m
            for i in range(nc):
                v[i][j] = (v[i][j] - q * v[i][pj]) % m
        pivots.append((pi, pj, bv, uinv))
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
    kernel_y = [(pj, p ** (npow - bv)) for _, pj, bv, _ in pivots if bv > 0]
    kernel_y += [(j, 1) for j in free_c]
    kernel = [[v[i][j] * g % m for i in range(nc)] for j, g in kernel_y]
    loss = max((bv for _, _, bv, _ in pivots), default=0)
    return x, kernel, loss


def apply(rows, x, m):
    return [sum(r * t for r, t in zip(row, x)) % m for row in rows]


def rand_system(rng, p, npow, nr, nc):
    """Entries of random valuation (zeros included), sometimes a dependent
    row, and a right side that is consistent half of the time."""
    m = p ** npow
    top = rng.choice([0, 1, 2, npow])
    dens = rng.random()
    rows = [[rng.randrange(m) * p ** rng.randint(0, top) % m
             if rng.random() < dens else 0 for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and rng.random() < 0.3:
        c = rng.randrange(m)
        rows[-1] = [(x + c * y) % m for x, y in zip(rows[0], rows[1])]
    if rng.random() < 0.5:
        xs = [rng.randrange(m) for _ in range(nc)]
        rhs = apply(rows, xs, m)
    else:
        rhs = [rng.randrange(m) * p ** rng.randint(0, npow) for _ in range(nr)]
    return rows, rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solve_matches_reference(p):
    rng = random.Random(p)
    seen = {"none": 0, "lossy": 0, "kernel": 0}
    shapes = [(0, 0), (1, 1), (1, 5), (5, 1), (3, 7), (7, 3), (6, 6), (9, 4),
              (4, 9), (12, 12)]
    for _ in range(60):
        for nr, nc in shapes:
            npow = rng.randint(1, 6)
            m = p ** npow
            rows, rhs = rand_system(rng, p, npow, nr, nc) if nr else ([], [])
            got = solve_mod_ppow(rows, rhs, p, npow)
            assert got == ref_solve(rows, rhs, p, npow), (rows, rhs, npow)
            if got is None:
                seen["none"] += 1
                continue
            x, kernel, loss = got
            assert apply(rows, x, m) == [c % m for c in rhs]
            for g in kernel:
                assert apply(rows, g, m) == [0] * nr
            seen["lossy"] += loss > 0
            seen["kernel"] += bool(kernel)
    # the corpus reaches inconsistent systems, non-unit pivots and kernels
    assert min(seen.values()) > 20, seen


def test_solve_without_unit_entries():
    # every entry divisible by p, as in the det-identity solves: each pivot
    # is the first entry of least valuation
    rng = random.Random(11)
    p, npow = 3, 8
    m = p ** npow
    for nr, nc in [(6, 12), (18, 36), (12, 6)]:
        rows = [[p ** rng.randint(1, 4) * rng.randrange(1, m) % m
                 if rng.random() < 0.35 else 0 for _ in range(nc)] for _ in range(nr)]
        xs = [rng.randrange(m) for _ in range(nc)]
        rhs = apply(rows, xs, m)
        got = solve_mod_ppow(rows, rhs, p, npow)
        assert got == ref_solve(rows, rhs, p, npow)
        assert got is not None and got[2] > 0


def test_empty_and_zero_systems():
    assert solve_mod_ppow([], [], 5, 3) == ([], [], 0)
    assert solve_mod_ppow([[0, 0]], [0], 5, 3) == ([0, 0], [[1, 0], [0, 1]], 0)
    assert solve_mod_ppow([[0, 0]], [1], 5, 3) is None
    assert solve_mod_ppow([[5, 0]], [25], 5, 3) == ([5, 0], [[25, 0], [0, 1]], 1)
    assert solve_mod_ppow([[5, 0]], [1], 5, 3) is None
