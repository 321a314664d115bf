"""Error paths and input validation across the modules."""

import pytest

from padiclog.cycser import FiniteGroupRingElt, InsufficientDegree
from padiclog.galimg import MatGroupGen, goursat_product_check
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
        MatGroupGen(5, 2, [((1, 0), (0, 1))], ext_d=4)  # 4 is a square
    with pytest.raises(ValueError):
        MatGroupGen(5, 2, [((0, 0), (0, 0))])
    ident = ((1, 0), (0, 1))
    for p in (0, 1, 4, 9, -5):
        with pytest.raises(ValueError, match="p must be a prime"):
            MatGroupGen(p, 2, [ident])
    with pytest.raises(ValueError, match="2 x 2"):
        MatGroupGen(5, 2, [ident, ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    with pytest.raises(ValueError):
        goursat_product_check(5, [])
    with pytest.raises(ValueError, match="2 x 2"):
        goursat_product_check(5, [(ident, ((2,),))])
    with pytest.raises(ValueError, match="invertible"):
        goursat_product_check(5, [(((0, 0), (0, 0)), ident)])
    with pytest.raises(ValueError, match="invertible"):
        goursat_product_check(5, [(ident, ((1, 2), (2, 4)))])


def test_crystal_params_validation():
    ctx = PrimeCtx(5, 8)
    with pytest.raises(ValueError):
        CrystalParams(ctx, 0, ctx.from_int(5), ctx.one(), ctx.one(), "ap-zero")
    with pytest.raises(ValueError):
        CrystalParams(ctx, 0, ctx.one(), ctx.one(), ctx.from_int(5), "ap-zero")


@pytest.mark.parametrize("p,eps", [(3, 1), (5, 3)])
def test_antisym_without_quotient_exits_2(p, eps, tmp_path, capsys):
    # L = 1 is not a multiple of M12 at k = 1, level 2, prec 6: the dense
    # fallback solve (50 x 50 at p = 3, 232 x 232 at p = 5) is inconsistent
    import json
    from padiclog.cli import main
    ctx = PrimeCtx(p, 6)
    path = tmp_path / "L.json"
    path.write_text(json.dumps({"p": p, "prec": 6, "k": 1, "eps": eps, "level": 2,
                                "L": IwaSeries.const(ctx, 1, 1).to_json()}))
    code = main(["antisym", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no quotient at this precision\n"
