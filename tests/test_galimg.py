import pytest

import random

from padiclog import galimg
from padiclog.galimg import (
    BudgetExceeded, GoursatVerdict, MatGroupGen, closure, find_tau,
    goursat_product_check, is_solvable, kron, min_poly, mat_rank,
)


# -- reference arithmetic: plain loops that share no code with galimg ---------------


def ref_mul(a, b, p):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p
                       for j in range(len(b[0]))) for i in range(len(a)))


def ref_ident(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def ref_bfs(ident, gens, mul, limit=None):
    """Elements in breadth-first discovery order: the queue is read front to
    back and each element is multiplied on the right by the generators in
    their given order.  None once more than limit elements are found."""
    seen, queue = {ident}, [ident]
    for x in queue:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
                if limit is not None and len(queue) > limit:
                    return None
    return queue


def ref_closure(gens, p, limit=None):
    return ref_bfs(ref_ident(len(gens[0])), gens,
                   lambda a, b: ref_mul(a, b, p), limit)


def ref_inverse(m, p):
    """Gauss-Jordan inverse mod p."""
    n = len(m)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] % p)
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], -1, p)
        a[c] = [x * inv % p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] % p:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return tuple(tuple(r[n:]) for r in a)


def ref_is_solvable(elements, p):
    """Derived series by all |G|^2 commutators of each term, the exhaustive loop."""
    current = list(elements)
    ident = ref_ident(len(current[0]))

    def mul(a, b):
        return ref_mul(a, b, p)

    while len(current) > 1:
        inverses = [ref_inverse(x, p) for x in current]
        comms = {mul(mul(x, y), mul(xi, yi))
                 for x, xi in zip(current, inverses)
                 for y, yi in zip(current, inverses)}
        derived = ref_bfs(ident, sorted(comms), mul)
        if len(derived) == len(current):
            return False
        current = derived
    return True


def ref_det_is_one(m, p):
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 1


def ref_is_tau(t, p):
    """Minimal polynomial (X-1)^2 (X+1)^2: it kills t, and neither maximal
    proper divisor (X-1)(X+1)^2 nor (X-1)^2 (X+1) does."""
    n = len(t)
    tm = tuple(tuple((t[i][j] - int(i == j)) % p for j in range(n)) for i in range(n))
    tp = tuple(tuple((t[i][j] + int(i == j)) % p for j in range(n)) for i in range(n))
    zero = tuple((0,) * n for _ in range(n))
    tm2, tp2 = ref_mul(tm, tm, p), ref_mul(tp, tp, p)
    return (ref_mul(tm2, tp2, p) == zero and ref_mul(tm, tp2, p) != zero
            and ref_mul(tm2, tp, p) != zero)


def sl2_gens(p):
    return [((1, 1), (0, 1)), ((0, 1), (p - 1, 0))]


def with_budget(budget, run):
    """run() with galimg.MAX_GROUP_ORDER set to budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(galimg, "MAX_GROUP_ORDER", budget)
        return run()


def test_closure_orders():
    assert len(closure(MatGroupGen(5, sl2_gens(5)))) == 120
    assert len(closure(MatGroupGen(7, sl2_gens(7)))) == 336
    ident_only = MatGroupGen(5, [((1, 0), (0, 1))])
    assert len(closure(ident_only)) == 1
    # 1x1 groups: 2 generates F_5^* and F_7^* has the element 2 of order 3
    assert len(closure(MatGroupGen(5, [((2,),)]))) == 4
    assert len(closure(MatGroupGen(7, [((2,),)]))) == 3


def test_closure_budget():
    grp = MatGroupGen(7, sl2_gens(7))
    with pytest.raises(BudgetExceeded, match="^closure exceeds budget 100$"):
        with_budget(100, lambda: closure(grp))
    assert galimg.MAX_GROUP_ORDER == 10 ** 7


def test_generators_are_int_rows_mod_p():
    # the side is read off the first generator; entries are reduced mod p
    grp = MatGroupGen(5, [[[6, -1], [10, 11]], ((2, 0), (0, 3))])
    assert grp.dim == 2
    assert grp.gens == [((1, 4), (0, 1)), ((2, 0), (0, 3))]
    assert len(closure(grp)) == len(ref_closure(grp.gens, 5))


def test_goursat_full_product_cyclic():
    # (g, 1), (g', h) with g, g' generating SL2(F5), h of order 4
    g, gp = sl2_gens(5)
    ident = ((1, 0), (0, 1))
    h = ((2, 0), (0, 1))  # 2 has order 4 mod 5
    v = goursat_product_check(5, [(g, ident), (gp, h)])
    assert v.full_product
    assert v.order_h == 480
    assert v.order_pr1 == 120 and v.order_pr2 == 4
    assert v.pr1_is_sl2
    assert v.pr2_solvable


def test_goursat_diagonal_not_full():
    g, gp = sl2_gens(5)
    v = goursat_product_check(5, [(g, g), (gp, gp)])
    assert not v.full_product
    assert v.order_h == 120


def test_goursat_dihedral_factor():
    # G2 nonabelian solvable: dihedral of order 8 as 2x2 matrices
    g, gp = sl2_gens(5)
    r = ((0, 1), (4, 0))   # rotation of order 4
    s = ((0, 1), (1, 0))   # reflection
    v = goursat_product_check(5, [(g, r), (gp, s)])
    assert v.order_pr2 == 8
    assert v.pr2_solvable
    assert v.pr1_is_sl2
    assert v.full_product
    assert v.order_h == 120 * 8


def test_goursat_monotone():
    # adding generators never flips full-product to not-full
    g, gp = sl2_gens(5)
    ident = ((1, 0), (0, 1))
    h = ((2, 0), (0, 1))
    base = [(g, ident), (gp, h)]
    v0 = goursat_product_check(5, base)
    assert v0.full_product
    for extra in (((g, h)), ((gp, ident))):
        v1 = goursat_product_check(5, base + [extra])
        assert v1.full_product


def test_kron_certificate():
    m1 = ((1, 1), (0, 1))
    m2 = ((0, 1), (1, 0))
    t = kron(m1, m2, 7)
    mp = min_poly(t, 7)
    assert mp == [1, 0, 5, 0, 1]  # X^4 - 2X^2 + 1 mod 7
    tm1 = tuple(tuple((t[i][j] - (1 if i == j else 0)) % 7 for j in range(4))
                for i in range(4))
    assert mat_rank(tm1, 7) == 3


def test_find_tau_identity_only():
    grp = MatGroupGen(7, [tuple(tuple(1 if i == j else 0 for j in range(4))
                                for i in range(4))])
    assert find_tau(grp) is None


def test_find_tau_tensor_image():
    # full SL2(F7) x dihedral tensor image
    gens = []
    dih = [((0, 1), (6, 0)), ((0, 1), (1, 0))]
    for a in sl2_gens(7):
        gens.append(kron(a, ((1, 0), (0, 1)), 7))
    for b in dih:
        gens.append(kron(((1, 0), (0, 1)), b, 7))
    grp = MatGroupGen(7, gens)
    cert = find_tau(grp)
    assert cert is not None
    assert cert.minpoly == [1, 0, 5, 0, 1]
    assert cert.rank_t_minus_1 == 3
    assert cert.quotient_rank == 1


T1, W = sl2_gens(7)
I2, MINUS_I2 = ((1, 0), (0, 1)), ((6, 0), (0, 6))
D7 = ((3, 0), (0, 5))  # diag(3, 3^(-1)), order 6 mod 7
BOREL7 = [T1, D7]      # upper triangular in SL2(F_7): nonabelian of order 42


def test_goursat_sl2_fp():
    # SL2(F_p) is perfect for p >= 5, so every subgroup projecting onto it
    # and onto a solvable group is full
    for p, order in ((5, 120), (7, 336)):
        t1, w = sl2_gens(p)
        minus = ((p - 1, 0), (0, p - 1))
        v = goursat_product_check(p, [(t1, I2), (w, minus)])
        assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
            True, 2 * order, order, 2)
        assert v.pr1_is_sl2 and v.pr2_solvable
        # the diagonal copy: pr1 = SL2, and pr2 = SL2 is not solvable
        v = goursat_product_check(p, [(t1, t1), (w, w)])
        assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
            False, order, order, order)
        assert v.pr1_is_sl2 and not v.pr2_solvable
    # SL2(F_3) is solvable, so both hypotheses hold and the diagonal is not full
    t1, w = sl2_gens(3)
    v = goursat_product_check(3, [(t1, t1), (w, w)])
    assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
        False, 24, 24, 24)
    assert v.pr1_is_sl2 and v.pr2_solvable


def test_goursat_borel_fp():
    # the diagonal copy of the Borel U x| <D>, nonabelian of order 42
    v = goursat_product_check(7, [(T1, T1), (D7, D7)])
    assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
        False, 42, 42, 42)
    assert v.pr2_solvable and not v.pr1_is_sl2
    v = goursat_product_check(7, [(T1, I2), (D7, D7)])
    assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
        False, 42, 42, 6)
    # SL2(F_7) and diag(2, 1): the matrices whose det is a power of 2 mod 7
    v = goursat_product_check(7, [(T1, I2), (W, I2), (((2, 0), (0, 1)), I2)])
    assert v.order_pr1 == 336 * 3 and not v.pr1_is_sl2


def dihedral_group(p, diag, off):
    """The group generated by diag(u, v) for (u, v) in diag and by
    antidiag(x, x') for (x, x') in off."""
    gens = [((u, 0), (0, v)) for u, v in diag]
    gens += [((0, x), (xp, 0)) for x, xp in off]
    return MatGroupGen(p, gens)


def test_is_solvable_matches_exhaustive_series():
    rng = random.Random(70)
    groups = [MatGroupGen(q, sl2_gens(q)) for q in (3, 5, 7)]
    f7_gens = [BOREL7, [T1, I2], [D7, W], [W], [T1, MINUS_I2]]
    groups += [MatGroupGen(7, gens) for gens in f7_gens]
    groups.append(MatGroupGen(5, [((0, 1), (4, 0)), ((0, 1), (1, 0))]))
    for _ in range(20):
        diag = [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(2)]
        off = [(rng.randrange(1, 7), rng.randrange(1, 7))]
        groups.append(dihedral_group(7, diag, off))
    verdicts = []
    for grp in groups:
        verdict = is_solvable(grp.gens, grp.p)
        assert verdict == ref_is_solvable(ref_closure(grp.gens, grp.p), grp.p), grp
        verdicts.append(verdict)
    # SL2(F_3) is solvable, SL2(F_5) and SL2(F_7) are perfect
    assert verdicts[:3] == [True, False, False]
    assert all(verdicts[3:])


# -- seeded differential tests against the reference ---------------------------------

PRIMES = (3, 5, 7)
ORDER_LIMIT = 2500      # redraw generator sets whose group is larger
PAIR_LIMIT = 6000       # and pair sets whose projections multiply to more
SOLVABLE_LIMIT = 150    # the exhaustive series costs |G|^2 commutators per term


def rand_gen(rng, p, dim):
    """One invertible generator: a scalar, or a diagonal, unipotent, monomial,
    SL2 or arbitrary invertible 2x2 matrix."""
    def unit():
        return rng.randrange(1, p)

    if dim == 1:
        return ((unit(),),)
    kind = rng.choice(["diag", "unipotent", "monomial", "sl2", "full"])
    if kind == "diag":
        return ((unit(), 0), (0, unit()))
    if kind == "unipotent":
        return ((1, rng.randrange(p)), (0, 1))
    if kind == "monomial":
        return ((0, unit()), (unit(), 0))
    if kind == "sl2":
        return rng.choice(sl2_gens(p))
    while True:
        m = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
            return m


def assert_budget_edge(run, order):
    """BudgetExceeded at MAX_GROUP_ORDER = order - 1, none at order."""
    if order > 1:
        with pytest.raises(BudgetExceeded):
            with_budget(order - 1, run)
    with_budget(order, run)


# ids "<p>-None" keep these tests' names from when they also ran over
# F_p^2, so that their results compare across revisions
@pytest.mark.parametrize("p", PRIMES, ids="{}-None".format)
def test_closure_matches_reference_bfs(p):
    rng = random.Random(1000 * p)
    solvable_checked = 0
    for trial in range(16):
        dim = 1 if trial % 4 == 0 else 2
        while True:
            grp = MatGroupGen(p, [rand_gen(rng, p, dim)
                                  for _ in range(rng.randint(1, 3))])
            want = ref_closure(grp.gens, p, ORDER_LIMIT)
            if want is not None:
                break
        assert closure(grp) == want, grp
        assert_budget_edge(lambda: closure(grp), len(want))
        if len(want) <= SOLVABLE_LIMIT:
            assert is_solvable(grp.gens, p) == ref_is_solvable(want, p), grp
            solvable_checked += 1
    assert solvable_checked >= 8


def signed_monomial(rng, p):
    """A 2x2 monomial matrix with entries +-1: these generate at most 8 elements."""
    u, v = rng.choice([1, p - 1]), rng.choice([1, p - 1])
    return rng.choice([((u, 0), (0, v)), ((0, u), (v, 0))])


@pytest.mark.parametrize("p", PRIMES, ids="{}-None".format)
def test_goursat_matches_reference(p):
    rng = random.Random(2000 * p)
    for trial in range(10):
        dim = 1 if trial % 5 == 0 else 2
        while True:
            n = rng.randint(1, 3)
            firsts = [rand_gen(rng, p, dim) for _ in range(n)]
            seconds = [rand_gen(rng, p, dim) for _ in range(n)]
            if dim == 2 and trial % 2:
                firsts = sl2_gens(p)
                seconds = [signed_monomial(rng, p) for _ in firsts]
            if trial == 4 and p == 5:
                seconds = sl2_gens(5)   # perfect, so pr2 is not solvable
            m = max(len(firsts), len(seconds))
            firsts += [rand_gen(rng, p, dim) for _ in range(m - len(firsts))]
            seconds += [rand_gen(rng, p, dim) for _ in range(m - len(seconds))]
            pairs = list(zip(firsts, seconds))
            g1 = MatGroupGen(p, firsts)
            g2 = MatGroupGen(p, seconds)
            pr1 = ref_closure(g1.gens, p, ORDER_LIMIT)
            pr2 = ref_closure(g2.gens, p, SOLVABLE_LIMIT)
            if pr1 and pr2 and len(pr1) * len(pr2) <= PAIR_LIMIT:
                break
        ident = ref_ident(dim)
        h = ref_bfs((ident, ident), list(zip(g1.gens, g2.gens)),
                    lambda x, g: (ref_mul(x[0], g[0], p), ref_mul(x[1], g[1], p)))
        want = GoursatVerdict(
            full_product=len(h) == len(pr1) * len(pr2),
            order_h=len(h), order_pr1=len(pr1), order_pr2=len(pr2),
            pr2_solvable=ref_is_solvable(pr2, p),
            pr1_is_sl2=(dim == 2 and len(pr1) == p * (p * p - 1)
                        and all(ref_det_is_one(m, p) for m in pr1)))
        assert goursat_product_check(p, pairs) == want, pairs
        assert_budget_edge(lambda: goursat_product_check(p, pairs), len(h))


def test_find_tau_matches_reference():
    """4x4 tensor images over F_7: the certificate element is the first
    element of the breadth-first order with minimal polynomial (X-1)^2 (X+1)^2."""
    p = 7
    rng = random.Random(77)
    ident2 = ((1, 0), (0, 1))
    found = 0
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(1, 3)):
            a, b = rand_gen(rng, p, 2), rand_gen(rng, p, 2)
            gens.append(rng.choice([kron(a, b, p), kron(a, ident2, p),
                                    kron(ident2, b, p)]))
        want = ref_closure(gens, p, ORDER_LIMIT)
        if want is None:
            continue
        grp = MatGroupGen(p, gens)
        assert closure(grp) == want
        assert_budget_edge(lambda: closure(grp), len(want))
        first = next((t for t in want if ref_is_tau(t, p)), None)
        cert = find_tau(grp)
        assert (cert and cert.element) == first
        if first is not None:
            assert cert.rank_t_minus_1 == 3 and cert.quotient_rank == 1
            found += 1
        if len(want) <= SOLVABLE_LIMIT:
            assert is_solvable(grp.gens, p) == ref_is_solvable(want, p)
    assert found >= 2
