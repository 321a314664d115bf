import pytest

import random

from padiclog.galimg import (
    BudgetExceeded, GoursatVerdict, MatGroupGen, closure, embed, find_tau,
    goursat_product_check, is_solvable, kron, mat_identity, mat_mul, min_poly,
    mat_rank,
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


def ref_det_is_one(m, p, d):
    """det == 1 over F_p (d None) or over F_p^2, whose entry (i, j) is read off
    the first column (a, b) of the block [[a, d b], [b, a]]."""
    if d is None:
        return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 1

    def entry(i, j):
        return m[2 * i][2 * j], m[2 * i + 1][2 * j]

    def fmul(x, y):
        return (x[0] * y[0] + d * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p

    ad, bc = fmul(entry(0, 0), entry(1, 1)), fmul(entry(0, 1), entry(1, 0))
    return ((ad[0] - bc[0]) % p, (ad[1] - bc[1]) % p) == (1, 0)


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


def test_closure_orders():
    assert len(closure(MatGroupGen(5, 2, sl2_gens(5)))) == 120
    assert len(closure(MatGroupGen(7, 2, sl2_gens(7)))) == 336
    ident_only = MatGroupGen(5, 2, [((1, 0), (0, 1))])
    assert len(closure(ident_only)) == 1
    # 1x1 groups: 2 generates F_5^* and F_7^* has the element 2 of order 3
    assert len(closure(MatGroupGen(5, 1, [((2,),)]))) == 4
    assert len(closure(MatGroupGen(7, 1, [((2,),)]))) == 3


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        closure(MatGroupGen(7, 2, sl2_gens(7)), budget=100)


def f25_mul(x, y):
    # F_25 = F_5[s]/(s^2 - 2), written out: (a + b s)(c + e s)
    return ((x[0] * y[0] + 2 * x[1] * y[1]) % 5, (x[0] * y[1] + x[1] * y[0]) % 5)


def f25_add(x, y):
    return ((x[0] + y[0]) % 5, (x[1] + y[1]) % 5)


def f25_inv(x):
    nrm = pow((x[0] * x[0] - 2 * x[1] * x[1]) % 5, -1, 5)
    return (x[0] * nrm % 5, -x[1] * nrm % 5)


def test_block_embedding_is_a_ring_homomorphism():
    rng = random.Random(25)
    elems = [(a, b) for a in range(5) for b in range(5)]
    for x in elems:
        for y in elems:
            assert mat_mul(embed(((x,),), 5, 2), embed(((y,),), 5, 2), 5) == \
                embed(((f25_mul(x, y),),), 5, 2)
    assert len({embed(((x,),), 5, 2) for x in elems}) == 25
    ident = mat_identity(4)
    for _ in range(30):
        m = tuple(tuple(rng.choice(elems) for _ in range(2)) for _ in range(2))
        n = tuple(tuple(rng.choice(elems) for _ in range(2)) for _ in range(2))
        mn = tuple(tuple(f25_add(f25_mul(m[i][0], n[0][j]), f25_mul(m[i][1], n[1][j]))
                         for j in range(2)) for i in range(2))
        assert mat_mul(embed(m, 5, 2), embed(n, 5, 2), 5) == embed(mn, 5, 2)
        det = f25_add(f25_mul(m[0][0], m[1][1]), f25_mul((4, 0), f25_mul(m[0][1], m[1][0])))
        if det == (0, 0):
            continue
        # adjugate over F_25 against the inverse taken inside the group
        di = f25_inv(det)
        neg = (4, 0)
        minv = ((f25_mul(m[1][1], di), f25_mul(neg, f25_mul(m[0][1], di))),
                (f25_mul(neg, f25_mul(m[1][0], di)), f25_mul(m[0][0], di)))
        em = embed(m, 5, 2)
        assert mat_mul(em, embed(minv, 5, 2), 5) == ident
        assert ref_inverse(em, 5) == embed(minv, 5, 2)


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
    grp = MatGroupGen(7, 4, [tuple(tuple(1 if i == j else 0 for j in range(4))
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
    grp = MatGroupGen(7, 4, gens)
    cert = find_tau(grp)
    assert cert is not None
    assert cert.minpoly == [1, 0, 5, 0, 1]
    assert cert.rank_t_minus_1 == 3
    assert cert.quotient_rank == 1


# F_9 = F_3[s]/(s^2 - 2): entries are pairs (a, b) meaning a + b s
F9_ONE, F9_S, F9_ZERO, F9_MINUS_ONE = (1, 0), (0, 1), (0, 0), (2, 0)
F9_T1 = ((F9_ONE, F9_ONE), (F9_ZERO, F9_ONE))
F9_TS = ((F9_ONE, F9_S), (F9_ZERO, F9_ONE))
F9_W = ((F9_ZERO, F9_ONE), (F9_MINUS_ONE, F9_ZERO))
F9_I = ((F9_ONE, F9_ZERO), (F9_ZERO, F9_ONE))
F9_D = ((F9_S, F9_ZERO), (F9_ZERO, (0, 2)))  # diag(s, s^(-1)), order 4


def test_closure_order_f9():
    # two transvections over F_9 and the Weyl element generate SL2(F_9)
    assert len(closure(MatGroupGen(3, 2, [F9_T1, F9_TS, F9_W], ext_d=2))) == 720
    # the unipotent radical of the Borel, elementary abelian of order 9
    assert len(closure(MatGroupGen(3, 2, [F9_T1, F9_TS], ext_d=2))) == 9


def test_goursat_f9():
    minus = ((F9_MINUS_ONE, F9_ZERO), (F9_ZERO, F9_MINUS_ONE))
    # SL2(F_9) is perfect, so every subgroup projecting onto it and C2 is full
    v = goursat_product_check(3, [(F9_T1, F9_I), (F9_TS, F9_I), (F9_W, minus)],
                              ext_d=2)
    assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
        True, 1440, 720, 2)
    assert v.pr1_is_sl2 and v.pr2_solvable
    # the diagonal copy of U x| <D>, nonabelian of order 36
    v = goursat_product_check(3, [(F9_T1, F9_T1), (F9_TS, F9_TS), (F9_D, F9_D)],
                              ext_d=2)
    assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
        False, 36, 36, 36)
    assert v.pr2_solvable and not v.pr1_is_sl2
    v = goursat_product_check(3, [(F9_T1, F9_I), (F9_TS, F9_I), (F9_D, F9_D)],
                              ext_d=2)
    assert (v.full_product, v.order_h, v.order_pr1, v.order_pr2) == (
        False, 36, 36, 4)


def dihedral_group(p, diag, off, ext_d=None):
    """The group generated by diag(u, v) for (u, v) in diag and by
    antidiag(x, x') for (x, x') in off."""
    gens = [((u, 0), (0, v)) for u, v in diag]
    gens += [((0, x), (xp, 0)) for x, xp in off]
    return MatGroupGen(p, 2, gens, ext_d)


def test_is_solvable_matches_exhaustive_series():
    rng = random.Random(70)
    groups = [MatGroupGen(q, 2, sl2_gens(q)) for q in (3, 5, 7)]
    f9_gens = [[F9_T1, F9_TS, F9_D], [F9_T1, F9_I], [F9_D, F9_W], [F9_W]]
    groups += [MatGroupGen(3, 2, gens, ext_d=2) for gens in f9_gens]
    groups.append(dihedral_group(3, [((1, 1), (1, 2))], [(F9_S, F9_ONE)], ext_d=2))
    groups.append(MatGroupGen(5, 2, [((0, 1), (4, 0)), ((0, 1), (1, 0))]))
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
    # SL2(F_9) is perfect too; its 720 elements are too many for the reference
    assert not is_solvable(MatGroupGen(3, 2, [F9_T1, F9_TS, F9_W], ext_d=2).gens, 3)


# -- seeded differential tests against the reference ---------------------------------

# (p, d): F_p when d is None, else F_p^2 = F_p[s]/(s^2 - d)
FIELDS = [(3, None), (5, None), (7, None), (3, 2), (5, 2)]
ORDER_LIMIT = 2500      # redraw generator sets whose group is larger
PAIR_LIMIT = 6000       # and pair sets whose projections multiply to more
SOLVABLE_LIMIT = 150    # the exhaustive series costs |G|^2 commutators per term


def rand_elt(rng, p, d, nonzero=False):
    while True:
        x = rng.randrange(p) if d is None else (rng.randrange(p), rng.randrange(p))
        if not nonzero or x not in (0, (0, 0)):
            return x


def rand_gen(rng, p, d, dim):
    """One invertible generator: a scalar, or a diagonal, unipotent, monomial,
    SL2 or (over F_p) arbitrary invertible 2x2 matrix."""
    def unit():
        return rand_elt(rng, p, d, nonzero=True)

    zero, one = (0, 0) if d else 0, (1, 0) if d else 1
    if dim == 1:
        return ((unit(),),)
    kinds = ["diag", "unipotent", "monomial"] + (["sl2", "full"] if d is None else [])
    kind = rng.choice(kinds)
    if kind == "diag":
        return ((unit(), zero), (zero, unit()))
    if kind == "unipotent":
        return ((one, rand_elt(rng, p, d)), (zero, one))
    if kind == "monomial":
        return ((zero, unit()), (unit(), zero))
    if kind == "sl2":
        return rng.choice(sl2_gens(p))
    while True:
        m = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
            return m


def assert_budget_edge(run, order):
    """BudgetExceeded at budget = order - 1, none at budget = order."""
    if order > 1:
        with pytest.raises(BudgetExceeded):
            run(order - 1)
    run(order)


@pytest.mark.parametrize("p,d", FIELDS)
def test_closure_matches_reference_bfs(p, d):
    rng = random.Random(1000 * p + (d or 0))
    solvable_checked = 0
    for trial in range(16):
        dim = 1 if trial % 4 == 0 else 2
        while True:
            grp = MatGroupGen(p, dim, [rand_gen(rng, p, d, dim)
                                       for _ in range(rng.randint(1, 3))], ext_d=d)
            want = ref_closure(grp.gens, p, ORDER_LIMIT)
            if want is not None:
                break
        assert closure(grp) == want, grp
        assert_budget_edge(lambda b: closure(grp, budget=b), len(want))
        if len(want) <= SOLVABLE_LIMIT:
            assert is_solvable(grp.gens, p) == ref_is_solvable(want, p), grp
            solvable_checked += 1
    assert solvable_checked >= 8


def sl2_field_gens(p, d):
    """Generators of SL2 over F_p or F_9, or None where SL2 is too large."""
    if d is None:
        return sl2_gens(p)
    return [F9_T1, F9_TS, F9_W] if p == 3 else None


def signed_monomial(rng, p, d):
    """A 2x2 monomial matrix with entries +-1: these generate at most 8 elements."""
    one, minus, zero = ((1, 0), (p - 1, 0), (0, 0)) if d else (1, p - 1, 0)
    u, v = rng.choice([one, minus]), rng.choice([one, minus])
    return rng.choice([((u, zero), (zero, v)), ((zero, u), (v, zero))])


@pytest.mark.parametrize("p,d", FIELDS)
def test_goursat_matches_reference(p, d):
    rng = random.Random(2000 * p + (d or 0))
    q = p if d is None else p * p
    for trial in range(10):
        dim = 1 if trial % 5 == 0 else 2
        while True:
            n = rng.randint(1, 3)
            firsts = [rand_gen(rng, p, d, dim) for _ in range(n)]
            seconds = [rand_gen(rng, p, d, dim) for _ in range(n)]
            if dim == 2 and trial % 2 and sl2_field_gens(p, d):
                firsts = sl2_field_gens(p, d)
                seconds = [signed_monomial(rng, p, d) for _ in firsts]
            if trial == 4 and (p, d) == (5, None):
                seconds = sl2_gens(5)   # perfect, so pr2 is not solvable
            m = max(len(firsts), len(seconds))
            firsts += [rand_gen(rng, p, d, dim) for _ in range(m - len(firsts))]
            seconds += [rand_gen(rng, p, d, dim) for _ in range(m - len(seconds))]
            pairs = list(zip(firsts, seconds))
            g1 = MatGroupGen(p, dim, firsts, ext_d=d)
            g2 = MatGroupGen(p, dim, seconds, ext_d=d)
            pr1 = ref_closure(g1.gens, p, ORDER_LIMIT)
            pr2 = ref_closure(g2.gens, p, SOLVABLE_LIMIT)
            if pr1 and pr2 and len(pr1) * len(pr2) <= PAIR_LIMIT:
                break
        ident = ref_ident(g1.size)
        h = ref_bfs((ident, ident), list(zip(g1.gens, g2.gens)),
                    lambda x, g: (ref_mul(x[0], g[0], p), ref_mul(x[1], g[1], p)))
        want = GoursatVerdict(
            full_product=len(h) == len(pr1) * len(pr2),
            order_h=len(h), order_pr1=len(pr1), order_pr2=len(pr2),
            pr2_solvable=ref_is_solvable(pr2, p),
            pr1_is_sl2=(dim == 2 and len(pr1) == q * (q * q - 1)
                        and all(ref_det_is_one(m, p, d) for m in pr1)))
        assert goursat_product_check(p, pairs, ext_d=d) == want, pairs
        assert_budget_edge(
            lambda b: goursat_product_check(p, pairs, ext_d=d, budget=b), len(h))


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
            a, b = rand_gen(rng, p, None, 2), rand_gen(rng, p, None, 2)
            gens.append(rng.choice([kron(a, b, p), kron(a, ident2, p),
                                    kron(ident2, b, p)]))
        want = ref_closure(gens, p, ORDER_LIMIT)
        if want is None:
            continue
        grp = MatGroupGen(p, 4, gens)
        assert closure(grp) == want
        assert_budget_edge(lambda b: closure(grp, budget=b), len(want))
        first = next((t for t in want if ref_is_tau(t, p)), None)
        cert = find_tau(grp)
        assert (cert and cert.element) == first
        if first is not None:
            assert cert.rank_t_minus_1 == 3 and cert.quotient_rank == 1
            found += 1
        if len(want) <= SOLVABLE_LIMIT:
            assert is_solvable(grp.gens, p) == ref_is_solvable(want, p)
    assert found >= 2
