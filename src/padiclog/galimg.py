"""Finite matrix-group checks over F_p and F_p^2.

Everything is exhaustive: groups are enumerated by breadth-first closure
under the generators, the product criterion compares the closure order with
the product of the projection orders, and the distinguished 4x4 elements are
certified by their minimal polynomial (X-1)^2 (X+1)^2 together with the rank
of t - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from padiclog.linsolve import solve_mod_ppow
from padiclog.padic import PadicError, is_qr


class BudgetExceeded(PadicError):
    pass


class InconsistentCharacter(PadicError):
    pass


class GF:
    """F_p, or F_p^2 = F_p[s]/(s^2 - d) with d a non-residue.

    Elements are ints (F_p) or pairs (a, b) meaning a + b s.
    """

    def __init__(self, p, d=None):
        self.p = p
        if d is not None:
            d %= p
            if d == 0 or is_qr(d, p):
                raise ValueError("extension parameter must be a non-residue")
        self.d = d

    @property
    def order(self):
        return self.p if self.d is None else self.p * self.p

    def lift(self, x):
        if self.d is None:
            if isinstance(x, tuple):
                if x[1] % self.p:
                    raise ValueError("element not in the prime field")
                return x[0] % self.p
            return x % self.p
        if isinstance(x, tuple):
            return (x[0] % self.p, x[1] % self.p)
        return (x % self.p, 0)

    def add(self, x, y):
        if self.d is None:
            return (x + y) % self.p
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def mul(self, x, y):
        if self.d is None:
            return (x * y) % self.p
        return ((x[0] * y[0] + self.d * x[1] * y[1]) % self.p,
                (x[0] * y[1] + x[1] * y[0]) % self.p)

    def neg(self, x):
        if self.d is None:
            return (-x) % self.p
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def inv(self, x):
        if self.d is None:
            return pow(x, -1, self.p)
        nrm = (x[0] * x[0] - self.d * x[1] * x[1]) % self.p
        ninv = pow(nrm, -1, self.p)
        return ((x[0] * ninv) % self.p, (-x[1] * ninv) % self.p)

    def zero(self):
        return 0 if self.d is None else (0, 0)

    def one(self):
        return 1 if self.d is None else (1, 0)

    def is_zero(self, x):
        return x == self.zero()


def mat_mul(field, a, b):
    n = len(a)
    return tuple(tuple(
        _dot(field, a[i], b, j, n) for j in range(n)) for i in range(n))


def _dot(field, row, b, j, n):
    acc = field.zero()
    for t in range(n):
        acc = field.add(acc, field.mul(row[t], b[t][j]))
    return acc


def mat_identity(field, n):
    return tuple(tuple(field.one() if i == j else field.zero()
                       for j in range(n)) for i in range(n))


def mat_det(field, a):
    n = len(a)
    if n == 2:
        return field.add(field.mul(a[0][0], a[1][1]),
                         field.neg(field.mul(a[0][1], a[1][0])))
    # fraction-free expansion is fine at n = 4
    det = field.zero()
    for j in range(n):
        minor = tuple(tuple(a[i][jj] for jj in range(n) if jj != j)
                      for i in range(1, n))
        term = field.mul(a[0][j], mat_det(field, minor))
        det = field.add(det, term if j % 2 == 0 else field.neg(term))
    return det


def mat_inv2(field, a):
    det = mat_det(field, a)
    di = field.inv(det)
    return (
        (field.mul(a[1][1], di), field.mul(field.neg(a[0][1]), di)),
        (field.mul(field.neg(a[1][0]), di), field.mul(a[0][0], di)),
    )


def normalize_mat(field, a):
    return tuple(tuple(field.lift(x) for x in row) for row in a)


class MatGroupGen:
    """Generators of a matrix group over F_p or F_p^2."""

    def __init__(self, p, dim, gens, ext_d=None):
        self.p = p
        self.dim = dim
        self.field = GF(p, ext_d)
        self.gens = [normalize_mat(self.field, g) for g in gens]
        for g in self.gens:
            if self.field.is_zero(mat_det(self.field, g)):
                raise ValueError("generators must be invertible")

    def __repr__(self):
        return "MatGroupGen(p=%d, dim=%d, %d gens)" % (self.p, self.dim, len(self.gens))


DEFAULT_BUDGET = 10 ** 7


def _bfs_closure(ident, gens, mul, budget):
    """Breadth-first closure of ident under right multiplication by gens.

    Returns the elements in discovery order; BudgetExceeded once more than
    budget elements would be needed.
    """
    seen = {ident}
    queue = [ident]
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded("closure exceeds budget %d" % budget)
                seen.add(y)
                queue.append(y)
    return queue


def closure(group, budget=DEFAULT_BUDGET):
    """Breadth-first product closure; returns the full element list."""
    field = group.field
    return _bfs_closure(mat_identity(field, group.dim), group.gens,
                        partial(mat_mul, field), budget)


def is_solvable(field, n, elements, budget=DEFAULT_BUDGET):
    """Derived series by exhaustive commutators; fine for small groups."""
    current = list(elements)
    while True:
        if len(current) == 1:
            return True
        inv_cache = {}

        def inv_of(m):
            r = inv_cache.get(m)
            if r is None:
                r = mat_inv2(field, m) if n == 2 else _mat_inv_gauss(field, m)
                inv_cache[m] = r
            return r

        comms = set()
        for x in current:
            xi = inv_of(x)
            for y in current:
                yi = inv_of(y)
                c = mat_mul(field, mat_mul(field, x, y), mat_mul(field, xi, yi))
                comms.add(c)
        derived = _bfs_closure(mat_identity(field, n), list(comms),
                               partial(mat_mul, field), budget)
        if len(derived) == len(current):
            return False
        current = derived


def _mat_inv_gauss(field, a):
    n = len(a)
    aug = [list(a[i]) + [field.one() if j == i else field.zero() for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not field.is_zero(aug[r][col]))
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = field.inv(aug[col][col])
        aug[col] = [field.mul(pinv, v) for v in aug[col]]
        for r in range(n):
            if r != col and not field.is_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [field.add(aug[r][j], field.neg(field.mul(f, aug[col][j])))
                          for j in range(2 * n)]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass
class GoursatVerdict:
    full_product: bool
    order_h: int
    order_pr1: int
    order_pr2: int
    pr2_solvable: bool
    pr1_is_sl2: bool


def goursat_product_check(p, gen_pairs, ext_d=None, budget=DEFAULT_BUDGET):
    """Subgroup of G1 x G2 from generator pairs: is it the full product?

    Also reports the two sufficient hypotheses: the second projection is
    solvable and the first equals SL2 of its field.
    """
    field = GF(p, ext_d)
    dim = len(gen_pairs[0][0])
    ident = mat_identity(field, dim)
    gens = [(normalize_mat(field, a), normalize_mat(field, b))
            for a, b in gen_pairs]
    mul = partial(mat_mul, field)
    pairs = _bfs_closure((ident, ident), gens,
                         lambda x, g: (mul(x[0], g[0]), mul(x[1], g[1])), budget)
    pr1 = _bfs_closure(ident, [g[0] for g in gens], mul, budget)
    pr2 = _bfs_closure(ident, [g[1] for g in gens], mul, budget)
    q = field.order
    sl2_order = q * (q * q - 1)
    pr1_sl2 = (len(pr1) == sl2_order and
               all(mat_det(field, m) == field.one() for m in pr1))
    return GoursatVerdict(
        full_product=(len(pairs) == len(pr1) * len(pr2)),
        order_h=len(pairs),
        order_pr1=len(pr1),
        order_pr2=len(pr2),
        pr2_solvable=is_solvable(field, dim, pr2, budget),
        pr1_is_sl2=pr1_sl2,
    )


class DihedralData:
    """Character values describing an induced two-dimensional representation.

    diag_pairs are the values (psi^(-1)(sigma), psi^(-1)(c sigma c^(-1))) on
    classes inside the index-two subgroup; offk_pairs the swap-form values
    (x, x') on classes outside it.  Optional relations (i, j, k) assert that
    class i times class j is class k among the diagonal entries.
    """

    def __init__(self, p, diag_pairs, offk_pairs, ext_d=None, relations=()):
        self.p = p
        self.field = GF(p, ext_d)
        self.diag_pairs = [(self.field.lift(u), self.field.lift(v))
                           for u, v in diag_pairs]
        self.offk_pairs = [(self.field.lift(x), self.field.lift(y))
                           for x, y in offk_pairs]
        for u, v in self.diag_pairs:
            if self.field.is_zero(u) or self.field.is_zero(v):
                raise InconsistentCharacter("character value is zero")
        for x, y in self.offk_pairs:
            if self.field.is_zero(x) or self.field.is_zero(y):
                raise InconsistentCharacter("off-class value is zero")
        for (i, j, k) in relations:
            u = self.field.mul(self.diag_pairs[i][0], self.diag_pairs[j][0])
            v = self.field.mul(self.diag_pairs[i][1], self.diag_pairs[j][1])
            if (u, v) != self.diag_pairs[k]:
                raise InconsistentCharacter(
                    "class relation %d * %d != %d" % (i, j, k))


def dihedral_rep(data):
    """Generators diag(u, v) and antidiag(x, x') from the character data."""
    f = data.field
    z = f.zero()
    gens = [((u, z), (z, v)) for u, v in data.diag_pairs]
    gens += [((z, x), (xp, z)) for x, xp in data.offk_pairs]
    ext_d = f.d
    return MatGroupGen(data.p, 2, gens, ext_d)


def has_abelian_index2(group, budget=DEFAULT_BUDGET):
    """True when the closure has an abelian subgroup of index <= 2.

    For monomial 2x2 groups the diagonal part is that subgroup.
    """
    field = group.field
    elems = closure(group, budget)
    diag = [m for m in elems if field.is_zero(m[0][1]) and field.is_zero(m[1][0])]
    if len(elems) not in (len(diag), 2 * len(diag)):
        return False
    return all(mat_mul(field, a, b) == mat_mul(field, b, a)
               for a in diag for b in diag)


def kron(a, b, p):
    """Kronecker product in the basis e1(x)f1, e1(x)f2, e2(x)f1, e2(x)f2."""
    out = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = (a[i][j] * b[k][l]) % p
    return tuple(tuple(row) for row in out)


def min_poly(mat, p):
    """Minimal polynomial of a matrix over F_p, as a coefficient list."""
    n = len(mat)
    cur = mat_identity(GF(p), n)
    vecs = [_flatten(cur)]
    for _ in range(n):
        cur = mat_mul(GF(p), cur, mat)
        vecs.append(_flatten(cur))
        dep = _dependency(vecs, p)
        if dep is not None:
            return dep
    raise AssertionError("no dependency found up to degree n")


def _flatten(mat):
    return [x for row in mat for x in row]


def _dependency(vecs, p):
    """Monic dependency of the last vector on the earlier ones, or None."""
    k = len(vecs) - 1
    rows = [[vecs[j][i] for j in range(k)] for i in range(len(vecs[0]))]
    sol = solve_mod_ppow(rows, [-x for x in vecs[k]], p, 1)
    return None if sol is None else sol[0] + [1]


def mat_rank(mat, p):
    n = len(mat)
    _x, kernel, _loss = solve_mod_ppow([list(r) for r in mat], [0] * n, p, 1)
    return n - len(kernel)


def _target_minpoly(p):
    # (X-1)^2 (X+1)^2 = X^4 - 2 X^2 + 1
    return [1 % p, 0, (-2) % p, 0, 1]


@dataclass
class TauCertificate:
    element: tuple
    minpoly: list
    rank_t_minus_1: int
    quotient_rank: int
    rank_sequence: list


def find_tau(group, budget=DEFAULT_BUDGET):
    """Search the closure for t with minimal polynomial (X-1)^2 (X+1)^2.

    The certificate records the minimal polynomial, rank(t-1) (= 3 is forced
    by the Jordan type), the rank of the quotient and the rank sequence of
    the powers of t-1.
    """
    if group.dim != 4 or group.field.d is not None:
        raise ValueError("tau search runs on 4x4 groups over F_p")
    p = group.p
    target = _target_minpoly(p)
    for t in closure(group, budget):
        mp = min_poly(t, p)
        if mp == target:
            tm1 = tuple(tuple((t[i][j] - (1 if i == j else 0)) % p
                              for j in range(4)) for i in range(4))
            r1 = mat_rank(tm1, p)
            sq = mat_mul(GF(p), tm1, tm1)
            certificate = TauCertificate(
                element=t, minpoly=mp, rank_t_minus_1=r1,
                quotient_rank=4 - r1,
                rank_sequence=[r1, mat_rank(sq, p)])
            assert r1 == 3, "Jordan type J2(1) + J2(-1) forces rank 3"
            return certificate
    return None
