"""Error paths and input validation across the modules."""

import pytest

from padiclog.galimg import MatGroupGen, goursat_product_check
from padiclog.iwadist import (ExtensionTooLarge, InsufficientDegree, IwaSeries,
                              eval_at, CharPoint, omega)
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


def _cli_exit(tmp_path, capsys, spec, *argv):
    """main(argv) on spec written to a file, whose path is the first
    argument after the subcommand: (exit code, stdout, stderr)."""
    import json
    from padiclog.cli import main
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    code = main([argv[0], str(path)] + list(argv[1:]))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("p,eps", [(3, 1), (5, 3)])
def test_antisym_without_quotient_exits_2(p, eps, tmp_path, capsys):
    # L = 1 is not a multiple of M12 at k = 1, level 2, prec 6: the dense
    # fallback solve (50 x 50 at p = 3, 232 x 232 at p = 5) is inconsistent
    spec = {"p": p, "prec": 6, "k": 1, "eps": eps, "level": 2,
            "L": IwaSeries.const(PrimeCtx(p, 6), 1, 1).to_json()}
    assert _cli_exit(tmp_path, capsys, spec, "antisym") == (
        2, "", "error: no quotient at this precision\n")


def test_regdiv_with_different_nvars_exits_2(tmp_path, capsys):
    # G = 1 in one variable read at F's 2-tuples looks like zero, and F
    # would be reported to divide it
    spec = {"p": 5, "prec": 4, "points": [5, 10],
            "F": {"nvars": 2, "deg_cap": 4,
                  "coeffs": {"0,0": "5", "1,0": "1", "0,1": "1"}},
            "G": {"nvars": 1, "deg_cap": 4, "coeffs": {"0": "1"}}}
    assert _cli_exit(tmp_path, capsys, spec, "regdiv") == (
        2, "", "error: F has 2 variables but G has 1\n")


def test_deplete_with_nmax_unlike_coeffs_exits_2(tmp_path, capsys):
    spec = {"ring": "int", "nmax": 5, "coeffs": [1, 2]}
    code, out, err = _cli_exit(tmp_path, capsys, spec, "deplete", "--p", "3")
    assert (code, out) == (2, "")
    assert err.endswith(": nmax is 5 but coeffs has 2 entries\n")


RINGS = ('"int", "quad:<D>" with D in (-3, -4, -7, -8, -11, -19, -43, -67, '
         '-163), or "cyclotomic:<M>" with M >= 1')


@pytest.mark.parametrize("ring,coeffs,msg", [
    ("foo", [1], "ring must be %s, not 'foo'" % RINGS),
    ("quad:-5", [[1, 0]], "ring must be %s, not 'quad:-5'" % RINGS),
    ("cyclotomic:08", [[1, 0, 0, 0]], "ring must be %s, not 'cyclotomic:08'" % RINGS),
    ("int", [[1], [2]], "coeffs over int must be integers"),
    ("quad:-3", [1, 2], "coeffs over quad:-3 must be integer vectors of length 2"),
    ("cyclotomic:8", [[1, 0, 0], [0, 1, 0]],
     "coeffs over cyclotomic:8 must be integer vectors of length deg Phi_8"),
    # phi(M) >= sqrt(M/2) rules this M out before phi(M) is computed
    ("cyclotomic:%d" % 10 ** 40, [[1, 0]],
     "coeffs over cyclotomic:%d must be integer vectors of length deg Phi_%d"
     % (10 ** 40, 10 ** 40)),
])
def test_deplete_rejects_rings_theta_and_eis_do_not_write(ring, coeffs, msg,
                                                          tmp_path, capsys):
    spec = {"ring": ring, "nmax": len(coeffs), "coeffs": coeffs}
    code, out, err = _cli_exit(tmp_path, capsys, spec, "deplete", "--p", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(": %s\n" % msg)


def test_divides_trunc_rejects_different_nvars():
    from padiclog.regdiv import MSeries, divides_trunc
    ctx = PrimeCtx(5, 4)
    f = MSeries(ctx, 2, {(0, 0): 5, (1, 0): 1, (0, 1): 1}, 4)
    with pytest.raises(ValueError, match="variables"):
        divides_trunc(f, MSeries(ctx, 1, {(0,): 1}, 4))
