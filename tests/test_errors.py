"""Error paths and input validation across the modules."""

import pytest

from padiclog.cycser import FiniteGroupRingElt, InsufficientDegree
from padiclog.galimg import GF, MatGroupGen
from padiclog.iwadist import ExtensionTooLarge, IwaSeries, eval_at, CharPoint, omega
from padiclog.logmat import CrystalParams, log_matrix_ap0
from padiclog.padic import NoRoot, NonUnit, PadicElt, PrimeCtx, sqrt


def test_primectx_validation():
    with pytest.raises(ValueError):
        PrimeCtx(4, 10)
    with pytest.raises(ValueError):
        PrimeCtx(2, 10)
    with pytest.raises(ValueError):
        PrimeCtx(5, 0)
    with pytest.raises(ValueError):
        PrimeCtx(5, 10, ("unramified", 4))   # 4 is a square mod 5
    with pytest.raises(ValueError):
        PrimeCtx(5, 10, ("ramified", 10))    # not a unit
    with pytest.raises(ValueError):
        PrimeCtx(5, 10, ("weird", 1))


def test_padic_misuse():
    ctx = PrimeCtx(5, 8)
    with pytest.raises(ValueError):
        PadicElt(ctx, 1, 2)  # extension coordinate without an extension
    x = ctx.from_int(10)
    with pytest.raises(NonUnit):
        x.divide_exact_p(2)
    with pytest.raises(NoRoot):
        sqrt(ctx.from_int(2))  # 2 is a non-residue mod 5
    with pytest.raises(TypeError):
        hash(x)


def test_mixed_contexts_rejected():
    a = PrimeCtx(5, 8).from_int(3)
    b = PrimeCtx(5, 9).from_int(3)
    with pytest.raises(ValueError):
        a + b


def test_groupring_index_validation():
    ctx = PrimeCtx(5, 6)
    with pytest.raises(ValueError):
        FiniteGroupRingElt(ctx, 1, {5: 1})


def test_eval_extension_too_large():
    ctx = PrimeCtx(3, 6)
    f = IwaSeries.gen(ctx, 8)
    with pytest.raises(ExtensionTooLarge):
        eval_at(f, CharPoint(9, 0))


def test_omega_insufficient_degree():
    ctx = PrimeCtx(3, 6)
    with pytest.raises(InsufficientDegree):
        omega(ctx, 3, 27)


def test_logmatrix_budget():
    pr = CrystalParams.ap_zero(7, 8, 0)
    with pytest.raises(InsufficientDegree):
        log_matrix_ap0(pr, 3)  # 7^5 coefficients exceeds the budget


def test_galimg_validation():
    with pytest.raises(ValueError):
        GF(5, 4)  # square
    with pytest.raises(ValueError):
        MatGroupGen(5, 2, [((0, 0), (0, 0))])


def test_crystal_params_validation():
    ctx = PrimeCtx(5, 8)
    with pytest.raises(ValueError):
        CrystalParams(ctx, 0, ctx.from_int(5), ctx.one(), ctx.one(), "ap-zero")
    with pytest.raises(ValueError):
        CrystalParams(ctx, 0, ctx.one(), ctx.one(), ctx.from_int(5), "ap-zero")
