"""Finite matrix-group checks over F_p.

Every matrix is a tuple of int rows mod p.  Everything is exhaustive: groups
are enumerated by breadth-first closure under the generators, the product
criterion compares the closure order with the product of the projection
orders, solvability follows the derived series through normal closures of
commutators, and the distinguished 4x4 elements are certified by their
minimal polynomial (X-1)^2 (X+1)^2 together with the rank of t - 1.  A
closure step is a table lookup: right multiplication by a generator g maps
each row r of x to r g, and each map memoises the products of the rows it
has seen (at most p^n for n x n matrices), so the closure forms every row product
once per generator.  No closure holds more than MAX_GROUP_ORDER elements.
The SL2 hypothesis is read off the generators, since det is multiplicative.
Ranks (hence invertibility) and minimal polynomials come from linsolve; an
inverse inside a finite group is the power x^(ord x - 1).
"""

from __future__ import annotations

from typing import NamedTuple
import operator

from padiclog._poly import isprime
from padiclog.linsolve import solve_mod_ppow
from padiclog.padic import PadicError


class BudgetExceeded(PadicError):
    pass


def mat_mul(a, b, p):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) % p for col in cols)
                 for row in a)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_rank(mat, p):
    n = len(mat)
    _x, kernel, _loss = solve_mod_ppow([list(r) for r in mat], [0] * n, p, 1)
    return n - len(kernel)


class MatGroupGen:
    """Generators of a matrix group over F_p, stored as int rows mod p.

    The side dim is read off gens[0]; there must be at least one generator,
    and every generator must be an invertible dim x dim matrix.
    """

    def __init__(self, p, gens):
        if not isprime(p):
            raise ValueError("p must be a prime, got %r" % (p,))
        if not gens:
            raise ValueError("need at least one generator")
        self.p = p
        self.dim = dim = len(gens[0])
        for g in gens:
            if len(g) != dim or any(len(row) != dim for row in g):
                raise ValueError("generators must be %d x %d matrices" % (dim, dim))
        self.gens = [tuple(tuple(c % p for c in row) for row in g) for g in gens]
        for g in self.gens:
            if mat_rank(g, p) < dim:
                raise ValueError("generators must be invertible")

    def __repr__(self):
        return "MatGroupGen(p=%d, dim=%d, %d gens)" % (self.p, self.dim, len(self.gens))


# the most elements any one closure may hold
MAX_GROUP_ORDER = 10 ** 7


def _right_mul(g, p):
    """The map x -> x g (mod p) for square int matrices x of g's side.

    A row of x g depends only on the same row of x, so the map keeps its own
    table of r -> r g and computes each distinct row product once; the table
    holds at most p^n rows for n x n matrices and lives as long as the map.
    """
    cols = tuple(zip(*g))
    rows = {}

    def step(x):
        out = []
        for r in x:
            y = rows.get(r)
            if y is None:
                y = rows[r] = tuple(sum(map(operator.mul, r, c)) % p
                                    for c in cols)
            out.append(y)
        return tuple(out)

    return step


def _bfs_closure(ident, steps):
    """Breadth-first closure of ident under the maps in steps.

    Each step is a right multiplication (from _right_mul, or a pair of them).
    Returns the elements in discovery order; BudgetExceeded once more than
    MAX_GROUP_ORDER elements would be needed.
    """
    budget = MAX_GROUP_ORDER
    seen = {ident}
    queue = [ident]
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        for step in steps:
            y = step(x)
            if y not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded("closure exceeds budget %d" % budget)
                seen.add(y)
                queue.append(y)
    return queue


def closure(group):
    """Breadth-first product closure; returns the full element list."""
    return _bfs_closure(mat_identity(group.dim),
                        [_right_mul(g, group.p) for g in group.gens])


def _group_inverse(x, ident, step):
    """x^(ord x - 1), the inverse of x in the finite group it generates.

    step is right multiplication by x.
    """
    prev, cur = ident, x
    while cur != ident:
        prev, cur = cur, step(cur)
    return prev


def _normal_closure(seeds, conj, ident, p):
    """Generators and elements of the normal closure of seeds in <gens>.

    conj lists the pairs (g, g^(-1)) for g in gens.  A generator whose
    conjugate by some g falls outside the subgroup joins the generators;
    then every g maps the subgroup into itself, which in a finite group makes
    it normal.  Each new generator at least doubles the subgroup, so there
    are few closures.
    """
    out = list(dict.fromkeys(x for x in seeds if x != ident))
    steps = [_right_mul(x, p) for x in out]
    members = set(_bfs_closure(ident, steps))
    i = 0
    while i < len(out):
        x = out[i]
        i += 1
        for g, gi in conj:
            y = mat_mul(mat_mul(g, x, p), gi, p)
            if y not in members:
                out.append(y)
                steps.append(_right_mul(y, p))
                members = set(_bfs_closure(ident, steps))
    return out, members


def is_solvable(gens, p):
    """Is the group generated by gens (int matrices mod p) solvable?

    Runs the derived series: the derived subgroup of <T> is the normal
    closure of the commutators of pairs from T, so commutators are taken of
    generators only, never of all pairs of elements.  The series stops at
    the trivial group (solvable) or at a term equal to its derived subgroup
    (not solvable).
    """
    ident = mat_identity(len(gens[0]))
    cur = [g for g in gens if g != ident]
    while cur:
        inverses = [_group_inverse(x, ident, _right_mul(x, p)) for x in cur]
        comms = [mat_mul(mat_mul(x, y, p), mat_mul(xi, yi, p), p)
                 for i, (x, xi) in enumerate(zip(cur, inverses))
                 for y, yi in zip(cur[:i], inverses[:i])]
        derived, members = _normal_closure(comms, list(zip(cur, inverses)),
                                           ident, p)
        if all(g in members for g in cur):
            return False
        cur = derived
    return True


class GoursatVerdict(NamedTuple):
    full_product: bool
    order_h: int
    order_pr1: int
    order_pr2: int
    pr2_solvable: bool
    pr1_is_sl2: bool


def goursat_product_check(p, gen_pairs):
    """Subgroup of G1 x G2 from generator pairs: is it the full product?

    Both factors act on the side of the first generator.  Also reports the
    two sufficient hypotheses: the second projection is solvable and the
    first equals SL2(F_p) (only 2x2 groups can).
    """
    if not gen_pairs:
        raise ValueError("need at least one generator pair")
    g1 = MatGroupGen(p, [a for a, _ in gen_pairs])
    dim = g1.dim
    if len(gen_pairs[0][1]) != dim:
        raise ValueError("generators must be %d x %d matrices" % (dim, dim))
    g2 = MatGroupGen(p, [b for _, b in gen_pairs])
    ident = mat_identity(dim)
    steps1 = [_right_mul(g, p) for g in g1.gens]
    steps2 = [_right_mul(g, p) for g in g2.gens]
    pairs = _bfs_closure((ident, ident),
                         [lambda x, a=a, b=b: (a(x[0]), b(x[1]))
                          for a, b in zip(steps1, steps2)])
    pr1 = _bfs_closure(ident, steps1)
    pr2 = _bfs_closure(ident, steps2)
    # every element of pr1 is a product of generators and det is
    # multiplicative, so det = 1 on pr1 exactly when it is 1 on the generators
    pr1_sl2 = (dim == 2 and len(pr1) == p * (p * p - 1) and
               all((a * d - b * c) % p == 1 for (a, b), (c, d) in g1.gens))
    return GoursatVerdict(
        full_product=(len(pairs) == len(pr1) * len(pr2)),
        order_h=len(pairs),
        order_pr1=len(pr1),
        order_pr2=len(pr2),
        pr2_solvable=is_solvable(g2.gens, p),
        pr1_is_sl2=pr1_sl2,
    )


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
    cur = mat_identity(n)
    vecs = [_flatten(cur)]
    for _ in range(n):
        cur = mat_mul(cur, mat, p)
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


def _target_minpoly(p):
    # (X-1)^2 (X+1)^2 = X^4 - 2 X^2 + 1
    return [1 % p, 0, (-2) % p, 0, 1]


class TauCertificate(NamedTuple):
    element: tuple
    minpoly: list
    rank_t_minus_1: int
    quotient_rank: int


def find_tau(group):
    """Search the closure for t with minimal polynomial (X-1)^2 (X+1)^2.

    The certificate records the minimal polynomial, rank(t-1) (= 3 is forced
    by the Jordan type) and the rank of the quotient.
    """
    if group.dim != 4:
        raise ValueError("tau search runs on 4x4 groups over F_p")
    p = group.p
    target = _target_minpoly(p)
    for t in closure(group):
        mp = min_poly(t, p)
        if mp == target:
            tm1 = tuple(tuple((t[i][j] - (1 if i == j else 0)) % p
                              for j in range(4)) for i in range(4))
            r1 = mat_rank(tm1, p)
            certificate = TauCertificate(
                element=t, minpoly=mp, rank_t_minus_1=r1,
                quotient_rank=4 - r1)
            assert r1 == 3, "Jordan type J2(1) + J2(-1) forces rank 3"
            return certificate
    return None
