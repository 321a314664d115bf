import pytest

import random

from padiclog.galimg import (
    BudgetExceeded, DihedralData, InconsistentCharacter, MatGroupGen,
    _bfs_closure, _group_inverse, closure, dihedral_rep, embed, find_tau,
    goursat_product_check, has_abelian_index2, is_solvable, kron, mat_identity,
    mat_mul, min_poly, mat_rank,
)


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
        assert _group_inverse(em, ident, lambda a, b: mat_mul(a, b, 5)) == \
            embed(minv, 5, 2)


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


def test_dihedral_rep():
    # trivial character: image is {identity, swap}
    d = DihedralData(7, [(1, 1)], [(1, 1)])
    grp = dihedral_rep(d)
    elems = closure(grp)
    assert len(elems) == 2
    # antidiagonal determinant is -x x'
    d2 = DihedralData(7, [(2, 4)], [(3, 5)])
    grp2 = dihedral_rep(d2)
    off = [m for m in grp2.gens if m[0][0] == 0]
    assert (off[0][0][0] * off[0][1][1] - off[0][0][1] * off[0][1][0]) % 7 == \
        (-3 * 5) % 7
    assert has_abelian_index2(grp2)


def test_dihedral_rep_random_has_index2_abelian():
    rng = random.Random(50)
    for _ in range(10):
        p = 7
        diag = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(2)]
        off = [(rng.randrange(1, p), rng.randrange(1, p))]
        grp = dihedral_rep(DihedralData(p, diag, off))
        assert has_abelian_index2(grp)


def test_dihedral_inconsistent():
    with pytest.raises(InconsistentCharacter):
        DihedralData(7, [(0, 1)], [(1, 1)])
    with pytest.raises(InconsistentCharacter):
        DihedralData(7, [(2, 3), (4, 5), (2, 2)], [(1, 1)],
                     relations=[(0, 1, 2)])
    # consistent relation: (2*4, 3*5) = (1, 1) mod 7
    DihedralData(7, [(2, 3), (4, 5), (1, 1)], [(1, 1)], relations=[(0, 1, 2)])


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


def test_dihedral_rep_f9():
    d = DihedralData(3, [((1, 1), (1, 2))], [(F9_S, F9_ONE)], ext_d=2,
                     relations=[])
    grp = dihedral_rep(d)
    assert len(closure(grp)) == 32
    assert has_abelian_index2(grp)
    # (1+s)^2 = 2s and (1+2s)^2 = s: class 0 squared is the added class 1
    DihedralData(3, [((1, 1), (1, 2)), ((0, 2), (0, 1))], [(F9_S, F9_ONE)],
                 ext_d=2, relations=[(0, 0, 1)])
    with pytest.raises(InconsistentCharacter):
        DihedralData(3, [((1, 1), (1, 2)), ((0, 1), (0, 2))], [(F9_S, F9_ONE)],
                     ext_d=2, relations=[(0, 0, 1)])


def ref_is_solvable(elements, p):
    """Derived series by all |G|^2 commutators of each term, the exhaustive loop."""
    current = list(elements)
    ident = mat_identity(len(current[0]))

    def mul(a, b):
        return mat_mul(a, b, p)

    while True:
        if len(current) == 1:
            return True
        inverses = [_group_inverse(x, ident, mul) for x in current]
        comms = {mul(mul(x, y), mul(xi, yi))
                 for x, xi in zip(current, inverses)
                 for y, yi in zip(current, inverses)}
        derived = _bfs_closure(ident, list(comms), mul, 10 ** 7)
        if len(derived) == len(current):
            return False
        current = derived


def test_is_solvable_matches_exhaustive_series():
    rng = random.Random(70)
    groups = [MatGroupGen(q, 2, sl2_gens(q)) for q in (3, 5, 7)]
    f9_gens = [[F9_T1, F9_TS, F9_D], [F9_T1, F9_I], [F9_D, F9_W], [F9_W]]
    groups += [MatGroupGen(3, 2, gens, ext_d=2) for gens in f9_gens]
    groups.append(dihedral_rep(DihedralData(3, [((1, 1), (1, 2))],
                                            [(F9_S, F9_ONE)], ext_d=2)))
    groups.append(MatGroupGen(5, 2, [((0, 1), (4, 0)), ((0, 1), (1, 0))]))
    for _ in range(20):
        diag = [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(2)]
        off = [(rng.randrange(1, 7), rng.randrange(1, 7))]
        groups.append(dihedral_rep(DihedralData(7, diag, off)))
    verdicts = []
    for grp in groups:
        verdict = is_solvable(grp.gens, grp.p)
        assert verdict == ref_is_solvable(closure(grp), grp.p), grp
        verdicts.append(verdict)
    # SL2(F_3) is solvable, SL2(F_5) and SL2(F_7) are perfect
    assert verdicts[:3] == [True, False, False]
    assert all(verdicts[3:])
    # SL2(F_9) is perfect too; its 720 elements are too many for the reference
    assert not is_solvable(MatGroupGen(3, 2, [F9_T1, F9_TS, F9_W], ext_d=2).gens, 3)
