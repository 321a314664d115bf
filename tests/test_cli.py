import json
import os
import pathlib
import subprocess
import sys

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import padiclog
from padiclog.cli import _dumps, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_halflog_command(capsys):
    code, out = run_cli(capsys, "halflog", "--p", "3", "--m", "1",
                        "--sign", "plus", "--level", "3", "--prec", "12")
    assert code == 0
    assert out["vanishes_at_order_p2"] is True
    assert out["var"] == "X"


def test_logmatrix_and_det_check(capsys):
    code, out = run_cli(capsys, "logmatrix", "--p", "3", "--k", "0",
                        "--level", "2", "--prec", "10")
    assert code == 0
    assert out["dim"] == 2
    # diagonal entries are zero
    assert all(c == "0" for c in out["entries"][0][0]["coeffs"])
    code, rep = run_cli(capsys, "check", "--suite", "det-identity")
    assert code == 0
    assert rep["pass"] is True


def test_theta_command(capsys):
    code, out = run_cli(capsys, "theta", "--disc", "-4", "--power", "4",
                        "--nmax", "50")
    assert code == 0
    coeffs = out["coeffs"]
    assert coeffs[0] == 1
    assert coeffs[1] == -4
    assert coeffs[4] == -14


def test_eis_command(capsys):
    code, out = run_cli(capsys, "eis", "--k", "3", "--root-order", "8",
                        "--p", "5", "--nmax", "10")
    assert code == 0
    assert out["ring"] == "cyclotomic:8"
    assert out["coeffs"][4] == [0, 0, 0, 0]


def test_deplete_command(tmp_path, capsys):
    blob = {"ring": "int", "nmax": 9, "coeffs": [1] * 9}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "deplete", str(path), "--p", "3")
    assert code == 0
    assert out["coeffs"] == [1, 1, 0, 1, 1, 0, 1, 1, 0]


def test_deplete_vector_coefficients(tmp_path, capsys):
    # eis output, one Z[x]/Phi_8 vector per coefficient, is valid input
    blob = {"ring": "cyclotomic:8", "nmax": 2, "coeffs": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "deplete", str(path), "--p", "3")
    assert code == 0
    assert out["coeffs"] == blob["coeffs"]
    # a depleted vector coefficient is the zero vector, not a scalar 0
    code, out = run_cli(capsys, "deplete", str(path), "--p", "2")
    assert code == 0
    assert out["coeffs"] == [[1, 0, 0, 0], [0, 0, 0, 0]]


def test_deplete_reads_what_theta_and_eis_write(tmp_path, capsys):
    from padiclog.qexp import ImagQuadCtx, theta_series
    # a twisted character puts the theta coefficients in the quadratic order
    ctx = ImagQuadCtx(-7, 1, cond=11, chi=lambda r: 1 if pow(
        (r[0] + 7 * r[1]) % 11, 5, 11) == 1 else -1)
    blobs = [theta_series(ctx, 12).to_json()]
    assert blobs[0]["ring"] == "quad:-7"
    for order in (1, 2, 5, 8, 9, 12, 15):
        code, out = run_cli(capsys, "eis", "--k", "3", "--root-order", str(order),
                            "--p", "5", "--nmax", "6")
        assert code == 0
        blobs.append(out)
    path = tmp_path / "q.json"
    for blob in blobs:
        path.write_text(json.dumps(blob))
        code, out = run_cli(capsys, "deplete", str(path), "--p", "3")
        assert code == 0 and out["ring"] == blob["ring"]


def test_eval_reads_scalar_fields(tmp_path, capsys):
    # the checked fields still accept what IwaSeries.to_json writes
    path = tmp_path / "e.json"
    path.write_text(json.dumps(bad_eval_spec(growth="1/2", denom_exp=1)))
    code, out = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert out["denom_exp"] == 1


def test_galimg_command(tmp_path, capsys):
    spec = {"p": 5, "gens": [[[1, 1], [0, 1]], [[0, 1], [4, 0]]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "galimg", str(path))
    assert code == 0
    assert out["order"] == 120


def test_regdiv_command(tmp_path, capsys):
    f = {"nvars": 2, "deg_cap": 6, "p": 5, "prec": 10,
         "coeffs": {"0,0": "1", "1,0": "1"}}
    g = {"nvars": 2, "deg_cap": 6, "p": 5, "prec": 10,
         "coeffs": {"0,0": "1", "1,0": "2", "2,0": "1"}}
    spec = {"p": 5, "prec": 10, "F": f, "G": g, "points": [5, 10, 15]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "regdiv", str(path))
    assert code == 0
    assert out["points_ok"] is True
    assert out["direct_ok"] is True


def test_check_failing_exit_code(tmp_path, capsys):
    # unknown suite -> usage error
    code = main(["check", "--suite", "nope"])
    assert code == 2


def test_deterministic_output(capsys):
    code1, out1 = run_cli(capsys, "halflog", "--p", "3", "--m", "1",
                          "--sign", "minus", "--level", "2")
    code2, out2 = run_cli(capsys, "halflog", "--p", "3", "--m", "1",
                          "--sign", "minus", "--level", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.xfail(strict=True, reason=(
    "padic.inv_scaled computes the norm of alpha = 3w at alpha's absolute "
    "precision 2, where it is 0, and leaves prec 0 to invert.  Computing it "
    "from the coordinates at x.prec + ceil(v) fixes this case but changes "
    "10 of the 40 golden digests (--qinv requests), so the fix belongs to "
    "the one-precision-per-series refactor (ROADMAP item 2), which may "
    "change output only where it was unsound."))
def test_qinv_at_low_precision_inverts_alpha(capsys):
    argv = ["logmatrix", "--p", "3", "--k", "1", "--level", "1", "--prec",
            "3", "--qinv"]
    assert run_cli(capsys, *argv)[0] == 0


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["theta", "--disc", "-4", "--power", "4", "--nmax", "10",
                 "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["coeffs"][1] == -4


def test_split_command(tmp_path, capsys):
    from padiclog.logmat import CrystalParams, log_matrix_ap0, qinv_times
    from padiclog.iwadist import IwaSeries
    from padiclog.split import SignedPair, forward
    pr = CrystalParams.ap_zero(3, 10, 0)
    qm = qinv_times(pr, log_matrix_ap0(pr, 2))
    pair = SignedPair(IwaSeries(pr.ctx, [1, 2, 3], None, None, 9),
                      IwaSeries(pr.ctx, [4, 5], None, None, 9), 2)
    ab = forward(pair, qm)
    spec = {"p": 3, "prec": 10, "k": 0, "level": 2,
            "alpha": ab.alpha_comp.to_json(), "beta": ab.beta_comp.to_json(),
            "denom_exp": 0}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "split", str(path))
    assert code == 0
    plus = [int(c) for c in out["plus"]["coeffs"]]
    assert plus[:3] == [1, 2, 3] and not any(plus[3:])


@pytest.mark.parametrize("budget", [0, 1, 2, 5])
def test_split_denominator_budget(budget, tmp_path, capsys):
    # forward's alpha and beta are over 3^3; read over 3^5 they are 3^-2
    # times the images of the pair, so the components are over 3^2, which a
    # budget below 2 refuses
    from padiclog.iwadist import IwaSeries
    from padiclog.split import SignedPair, forward, split_operator
    op = split_operator(3, 12, 0, 1, 3)
    pair = SignedPair(IwaSeries(op.ctx, [1, 2, 1], None, None, 3),
                      IwaSeries(op.ctx, [2, 1], None, None, 3), 3)
    ab = forward(pair, op.qinv_m)
    assert ab.alpha_comp.denom_exp == ab.beta_comp.denom_exp == 3
    spec = {"p": 3, "k": 0, "level": 3, "denom_exp": budget,
            "alpha": dict(ab.alpha_comp.to_json(), denom_exp=5),
            "beta": dict(ab.beta_comp.to_json(), denom_exp=5)}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    code = main(["split", str(path)])
    captured = capsys.readouterr()
    if budget < 2:
        assert (code, captured.out, captured.err) == (
            2, "", "error: components exceed the declared denominator budget\n")
        return
    assert code == 0
    out = json.loads(captured.out)
    assert out["plus"]["denom_exp"] == out["minus"]["denom_exp"] == 2
    assert [int(c) for c in out["plus"]["coeffs"]][:4] == [1, 2, 1, 0]
    assert [int(c) for c in out["minus"]["coeffs"]][:3] == [2, 1, 0]


def test_eval_command(tmp_path, capsys):
    from padiclog.iwadist import omega
    from padiclog.padic import PrimeCtx
    ctx = PrimeCtx(3, 10)
    w = omega(ctx, 2, 12)
    spec = {"p": 3, "prec": 10, "series": w.to_json(), "point": {"t": 2, "j": 0}}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert out["is_zero"] is True
    spec["point"] = {"t": 2, "j": 1}
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "eval", str(path))
    assert code == 0
    assert out["is_zero"] is False


def test_unbounded_split_exits_2(tmp_path, capsys):
    from padiclog.iwadist import IwaSeries
    from padiclog.padic import PrimeCtx
    ctx = PrimeCtx(3, 10)
    spec = {"p": 3, "prec": 10, "k": 0, "level": 2,
            "alpha": IwaSeries.const(ctx, 1, 4).to_json(),
            "beta": IwaSeries.zero(ctx, 4).to_json(), "denom_exp": 0}
    path = tmp_path / "u.json"
    path.write_text(json.dumps(spec))
    code = main(["split", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_logmatrix_level_beyond_budget_exits_2(capsys):
    code = main(["logmatrix", "--p", "3", "--k", "0", "--level", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "level 9" in captured.err


def test_main_reuses_one_parser(tmp_path, capsys):
    # one process, switching subcommands and flags, with a parse error in
    # between: every call must match a call on a freshly built parser
    from padiclog.cli import build_parser
    target = tmp_path / "m.json"
    calls = [["logmatrix", "--p", "3", "--k", "0", "--level", "1", "--qinv"],
             ["logmatrix", "--p", "3", "--k", "0", "--level", "1"],
             ["halflog", "--p", "3", "--sign", "plus", "--level", "1",
              "--out", str(target)],
             ["halflog", "--p", "3", "--level", "1"],
             ["halflog", "--p", "3", "--sign", "minus", "--level", "2"],
             ["theta", "--disc", "-4", "--power", "4", "--nmax", "10"],
             ["check", "--suite", "nope"],
             ["logmatrix", "--p", "3", "--k", "1", "--level", "1"]]

    def run(argv):
        if target.exists():
            target.unlink()
        code = main(argv)
        cap = capsys.readouterr()
        written = target.read_text() if target.exists() else None
        return code, cap.out, cap.err, written

    warm = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert warm == fresh
    assert [w[0] for w in warm] == [0, 0, 0, 2, 0, 0, 2, 0]
    assert warm[2][1] == "" and warm[2][3] is not None


def bad_split_spec(**change):
    from padiclog.iwadist import IwaSeries
    from padiclog.padic import PrimeCtx
    ctx = PrimeCtx(3, 10)
    spec = {"p": 3, "prec": 10, "k": 0, "level": 2,
            "alpha": IwaSeries.const(ctx, 1, 4).to_json(),
            "beta": IwaSeries.const(ctx, 2, 4).to_json(), "denom_exp": 0}
    spec.update(change)
    return spec


def bad_regdiv_spec(f_coeffs=None, points=(5, 10), **g_change):
    f = {"nvars": 2, "deg_cap": 4, "coeffs": {"0,0": "1", "1,0": "1"}}
    if f_coeffs is not None:
        f["coeffs"] = f_coeffs
    g = {"nvars": 2, "deg_cap": 4, "coeffs": {"0,0": "1"}}
    g.update(g_change)
    return {"p": 5, "prec": 10, "F": f, "G": g, "points": list(points)}


def bad_eval_spec(**change):
    series = {"coeffs": ["1", "2", "0", "1"], "prec": 6, "deg_cap": 4,
              "denom_exp": 0, "growth": "0"}
    series.update(change)
    return {"p": 3, "prec": 10, "series": series, "point": {"t": 1, "j": 0}}


MALFORMED = {
    "split-level-string": ("split", bad_split_spec(level="2")),
    "split-coeffs-int": ("split", bad_split_spec(alpha={"coeffs": 5})),
    "split-coeffs-nested": ("split", bad_split_spec(alpha={"coeffs": [[1]]})),
    "regdiv-point-string": ("regdiv", bad_regdiv_spec(points=["a"])),
    "regdiv-coeffs-list": ("regdiv", bad_regdiv_spec(f_coeffs=[1, 2])),
    "split-alpha-beta-lists": ("split", bad_split_spec(alpha=[1, 2], beta=[3])),
    "galimg-gens-int": ("galimg", {"p": 5, "gens": 3}),
    "galimg-p-zero": ("galimg", {"p": 0, "gens": [[[1, 1], [0, 1]]]}),
    "galimg-p-four": ("galimg", {"p": 4, "gens": [[[1, 1], [0, 1]]]}),
    "galimg-p-nine": ("galimg", {"p": 9, "gens": [[[1, 1], [0, 1]]]}),
    "galimg-gens-mixed-sizes": ("galimg", {"p": 5, "gens": [
        [[1, 1], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}),
    "galimg-pair-mixed-sizes": ("galimg", {"p": 5, "pairs": [
        [[[1, 1], [0, 1]], [[2]]]]}),
    "galimg-pairs-empty": ("galimg", {"p": 5, "pairs": []}),
    "galimg-pair-singular": ("galimg", {"p": 5, "pairs": [
        [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]]}),
    "eval-null": ("eval", None),
    "deplete-list": ("deplete", [1, 2, 3]),
    "deplete-coeffs-nested": ("deplete", {"ring": "int", "nmax": 3,
                                          "coeffs": [[1], 2, 3]}),
    "deplete-ring-unknown": ("deplete", {"ring": "foo", "nmax": 1, "coeffs": [1]}),
    "deplete-ring-quad-class-number-two": ("deplete", {
        "ring": "quad:-15", "nmax": 1, "coeffs": [[1, 0]]}),
    "deplete-ring-quad-scalars": ("deplete", {"ring": "quad:-4", "nmax": 2,
                                              "coeffs": [1, 2]}),
    "deplete-ring-cyclotomic-zero": ("deplete", {"ring": "cyclotomic:0", "nmax": 1,
                                                 "coeffs": [[1]]}),
    "deplete-ring-cyclotomic-short": ("deplete", {"ring": "cyclotomic:8", "nmax": 1,
                                                  "coeffs": [[1, 0]]}),
    "eval-prec-string": ("eval", bad_eval_spec(prec="3")),
    "eval-deg-cap-string": ("eval", bad_eval_spec(deg_cap="4")),
    "eval-denom-exp-negative": ("eval", bad_eval_spec(denom_exp=-1)),
    "eval-growth-list": ("eval", bad_eval_spec(growth=[1])),
    "regdiv-nvars-string": ("regdiv", bad_regdiv_spec(nvars="2")),
    "regdiv-deg-cap-string": ("regdiv", bad_regdiv_spec(deg_cap="6")),
    "regdiv-prec-string": ("regdiv", bad_regdiv_spec(prec="abc")),
    # G = 1 + x0 + 3 x0^(-1) x1^2 is no power series
    "regdiv-negative-exponent": ("regdiv", bad_regdiv_spec(
        coeffs={"0,0": "1", "1,0": "1", "-1,2": "3"})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(case, tmp_path, capsys):
    cmd, spec = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    argv = [cmd, str(path)] + (["--p", "3"] if cmd == "deplete" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["halflog", "--p", "3", "--sign", "plus", "--level", "-1"],
    ["logmatrix", "--p", "3", "--k", "-1", "--level", "1"],
    ["halflog", "--p", "3", "--m", "-1", "--sign", "plus", "--level", "1"],
])
def test_negative_level_or_weight_exits_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["theta", "--disc", "-4", "--power", "4", "--nmax", "-5"],
    ["theta", "--disc", "-4", "--power", "4", "--cond", "0", "--nmax", "5"],
    ["eis", "--k", "2", "--root-order", "8", "--p", "5", "--nmax", "-3"],
])
def test_bad_qexp_flags_exit_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_eis_weight_below_one_exits_2(capsys):
    # d^(k-1) is not an integer for k < 1
    code = main(["eis", "--k", "0", "--root-order", "8", "--p", "5", "--nmax", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_eis_weight_one_output(capsys):
    # k = 1: a_n = sum_{d | n, p not | n} (zeta^d - zeta^(-d)) in Z[x]/(x^4 + 1)
    code, out = run_cli(capsys, "eis", "--k", "1", "--root-order", "8",
                        "--p", "5", "--nmax", "12")
    assert code == 0
    assert out["ring"] == "cyclotomic:8"

    def zeta_pow(e):
        vec = [0] * 4
        vec[e % 4] = -1 if e % 8 >= 4 else 1
        return vec

    want = []
    for n in range(1, 13):
        acc = [0] * 4
        if n % 5:
            for d in range(1, n + 1):
                if n % d == 0:
                    acc = [x + y - z for x, y, z in zip(acc, zeta_pow(d), zeta_pow(-d))]
        want.append(acc)
    assert out["coeffs"] == want


@pytest.mark.parametrize("argv", [
    ["logmatrix", "--p", "0", "--k", "0", "--level", "1"],
    ["logmatrix", "--p", "0", "--k", "1", "--level", "1"],
    ["eis", "--k", "2", "--root-order", "8", "--p", "0", "--nmax", "3"],
    ["deplete", "{input}", "--p", "0"],
])
def test_p_zero_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"ring": "int", "nmax": 3, "coeffs": [1, 2, 3]}))
    code = main([a.format(input=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_theta_negative_power_exits_2():
    # a negative exponent once looped for ever in QuadOrder.power
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(padiclog.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "padiclog.cli", "theta", "--disc", "-4",
                           "--power", "-1", "--nmax", "5"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def canonical_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=str)


JSON_DOCS = [
    {}, [], "", 0, -7, True, False, None, Fraction(3, 4), 1.5,
    {"a": [], "b": {}, "c": [[], {}], "d": [{}]},
    {"coeffs": ["0", "12", "3"], "prec": 12, "growth": Fraction(1, 2),
     "plus": {"coeffs": [1, 2, 3], "w": None}, "ok": [True, False]},
    {"esc": ["quote \" backslash \\ newline \n tab \t", "\u0001"],
     "non-ascii": ["\u00e9", "\u2603", "\U0001f600"], "\u00e9 key": "\u2603"},
    [[1, "1"], [1, True], [None, 2], ["x", Fraction(-2, 3)], [1.0, 2], (1, 2)],
    {"deep": {"er": {"est": [[[1, 2], ["a"]], {"k": [False]}]}}},
    {"b": 1, "a": 2, "B": 3, "_": 4, "": 5},
    {1: "int key", 2: [3]}, [{3: 4}], [10 ** 40, -(10 ** 40)],
]


@pytest.mark.parametrize("doc", JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert _dumps(doc) == canonical_json(doc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.fractions()
    | st.floats(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30)


@settings(deadline=None, max_examples=300)
@given(doc=JSON_VALUES)
def test_json_writer_property(doc):
    assert _dumps(doc) == canonical_json(doc)
